// Persistence micro-benchmarks for the durable segment snapshot subsystem
// (docs/PERSISTENCE.md):
//
// (a) Write path: segment persist throughput (answers/s through
//     EncodeAnswerBlock -> file -> manifest publish) and journal append
//     throughput, with fsync off so the codec and file handling are
//     measured rather than the disk's flush latency.
// (b) Read path: cold SnapshotStore::Open of a directory holding a full
//     history, swept over history size.
// (c) Recovery latency: constructing an IncrementalInferenceEngine on a
//     populated checkpoint directory — the full restore path (decode,
//     verify, load into the engine's answer log), which is what a
//     restarted service pays before it can serve.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "service/incremental_engine.h"
#include "service/snapshot_store.h"
#include "simulation/crowd_simulator.h"
#include "simulation/table_generator.h"

namespace {

using namespace tcrowd;

namespace fs = std::filesystem;

/// Same synthetic mixed-type world recipe as the ingestion sweep.
struct SnapshotWorld {
  sim::GeneratedTable table;
  std::vector<Answer> answers;

  explicit SnapshotWorld(int num_answers) {
    const int kCols = 10;
    const int kAnswersPerTask = 5;
    sim::TableGeneratorOptions topt;
    topt.num_rows = std::max(1, num_answers / (kCols * kAnswersPerTask));
    topt.num_cols = kCols;
    Rng rng(88100 + num_answers);
    table = sim::GenerateTable(topt, &rng);
    sim::CrowdOptions copt;
    copt.num_workers = 60;
    sim::CrowdSimulator crowd(
        copt, table.schema, table.truth, table.row_difficulty,
        table.col_difficulty,
        sim::CrowdSimulator::DefaultColumnScales(table.schema),
        Rng(88200 + num_answers));
    AnswerSet seeded(table.truth.num_rows(), table.schema.num_columns());
    crowd.SeedAnswers(kAnswersPerTask, &seeded);
    answers = seeded.answers();
  }
};

constexpr size_t kSegmentAnswers = 1024;  ///< answers per persisted segment

std::string BenchDir(const char* name) {
  fs::path dir = fs::temp_directory_path() / "tcrowd_bench_snapshot" / name;
  fs::create_directories(dir);
  return dir.string();
}

service::CheckpointArgs BenchArgs(const std::string& dir) {
  service::CheckpointArgs args;
  args.directory = dir;
  args.fsync = false;  // measure the subsystem, not the disk cache flush
  return args;
}

/// Populates `dir` with the world's full history as segment files.
void PopulateDir(const SnapshotWorld& world, const std::string& dir) {
  service::SnapshotStore::WipeDirectory(dir);
  service::SnapshotStore store(BenchArgs(dir));
  service::SnapshotStore::RecoveredLog log;
  store.Open(world.table.schema, world.table.truth.num_rows(), &log);
  for (size_t lo = 0; lo < world.answers.size(); lo += kSegmentAnswers) {
    size_t n = std::min(kSegmentAnswers, world.answers.size() - lo);
    store.PersistSealed(world.answers.data() + lo, n);
  }
}

void BM_SnapshotWriteSegments(benchmark::State& state) {
  SnapshotWorld world(static_cast<int>(state.range(0)));
  std::string dir = BenchDir("write");
  for (auto _ : state) {
    service::SnapshotStore::WipeDirectory(dir);
    service::SnapshotStore store(BenchArgs(dir));
    service::SnapshotStore::RecoveredLog log;
    store.Open(world.table.schema, world.table.truth.num_rows(), &log);
    for (size_t lo = 0; lo < world.answers.size(); lo += kSegmentAnswers) {
      size_t n = std::min(kSegmentAnswers, world.answers.size() - lo);
      store.PersistSealed(world.answers.data() + lo, n);
    }
    benchmark::DoNotOptimize(store.durable_sealed());
  }
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["answers_per_sec"] = benchmark::Counter(
      static_cast<double>(world.answers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SnapshotWriteSegments)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotJournalAppend(benchmark::State& state) {
  SnapshotWorld world(static_cast<int>(state.range(0)));
  const size_t batch = static_cast<size_t>(state.range(1));
  std::string dir = BenchDir("journal");
  for (auto _ : state) {
    service::SnapshotStore::WipeDirectory(dir);
    service::SnapshotStore store(BenchArgs(dir));
    service::SnapshotStore::RecoveredLog log;
    store.Open(world.table.schema, world.table.truth.num_rows(), &log);
    for (size_t lo = 0; lo < world.answers.size(); lo += batch) {
      size_t n = std::min(batch, world.answers.size() - lo);
      store.JournalAppend(lo, world.answers.data() + lo, n);
    }
    benchmark::DoNotOptimize(store.durable_journaled());
  }
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["answers_per_sec"] = benchmark::Counter(
      static_cast<double>(world.answers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SnapshotJournalAppend)
    ->Args({10000, 32})
    ->Args({10000, 512})
    ->Unit(benchmark::kMillisecond);

void BM_SnapshotLoad(benchmark::State& state) {
  SnapshotWorld world(static_cast<int>(state.range(0)));
  std::string dir = BenchDir("load");
  PopulateDir(world, dir);
  for (auto _ : state) {
    service::SnapshotStore store(BenchArgs(dir));
    service::SnapshotStore::RecoveredLog log;
    store.Open(world.table.schema, world.table.truth.num_rows(), &log);
    benchmark::DoNotOptimize(log.answers.size());
  }
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["answers_per_sec"] = benchmark::Counter(
      static_cast<double>(world.answers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_SnapshotLoad)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// Recovery latency vs history size: everything a restarted engine pays
/// before it can serve (no fit included — estimates come back with the
/// first refresh, which is the same cost as any refresh).
void BM_EngineRecovery(benchmark::State& state) {
  SnapshotWorld world(static_cast<int>(state.range(0)));
  std::string dir = BenchDir("recovery");
  PopulateDir(world, dir);
  service::InferenceArgs args;
  args.method = "tcrowd";
  args.staleness_threshold = 1 << 30;  // isolate restore, not refits
  args.min_answers_for_fit = 1 << 30;
  args.checkpoint = BenchArgs(dir);
  for (auto _ : state) {
    service::IncrementalInferenceEngine engine(
        world.table.schema, world.table.truth.num_rows(), args, nullptr);
    benchmark::DoNotOptimize(engine.restored_answers());
  }
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["answers_per_sec"] = benchmark::Counter(
      static_cast<double>(world.answers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_EngineRecovery)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
