// Ingestion micro-benchmarks for the engine's answer log: per-answer
// SubmitAnswer vs batched SubmitAnswerBatch through the
// IncrementalInferenceEngine's ingest queue (refreshes disabled, so the
// numbers isolate the ingest path: queue -> drain -> answer log + per-cell
// retraction index).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "service/incremental_engine.h"
#include "simulation/crowd_simulator.h"
#include "simulation/table_generator.h"

namespace {

using namespace tcrowd;

/// A synthetic mixed-type world scaled to the requested answer count (same
/// recipe as the fig-12 inference sweep).
struct IngestWorld {
  sim::GeneratedTable table;
  std::vector<Answer> answers;

  explicit IngestWorld(int num_answers) {
    const int kCols = 10;
    const int kAnswersPerTask = 5;
    sim::TableGeneratorOptions topt;
    topt.num_rows = std::max(1, num_answers / (kCols * kAnswersPerTask));
    topt.num_cols = kCols;
    Rng rng(77100 + num_answers);
    table = sim::GenerateTable(topt, &rng);
    sim::CrowdOptions copt;
    copt.num_workers = 60;
    sim::CrowdSimulator crowd(
        copt, table.schema, table.truth, table.row_difficulty,
        table.col_difficulty,
        sim::CrowdSimulator::DefaultColumnScales(table.schema),
        Rng(77200 + num_answers));
    AnswerSet seeded(table.truth.num_rows(), table.schema.num_columns());
    crowd.SeedAnswers(kAnswersPerTask, &seeded);
    answers = seeded.answers();
  }
};

service::InferenceArgs IngestOnlyArgs() {
  // No refreshes: staleness/min-fit out of reach, so only the ingest path
  // (queue, drain, log append, per-cell live ids) is measured.
  service::InferenceArgs args;
  args.method = "tcrowd";
  args.staleness_threshold = 1 << 30;
  args.min_answers_for_fit = 1 << 30;
  return args;
}

void BM_EngineSubmitPerAnswer(benchmark::State& state) {
  IngestWorld world(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    service::IncrementalInferenceEngine engine(
        world.table.schema, world.table.truth.num_rows(), IngestOnlyArgs(),
        nullptr);
    for (const Answer& a : world.answers) engine.SubmitAnswer(a);
    benchmark::DoNotOptimize(engine.num_answers());
  }
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["answers_per_sec"] = benchmark::Counter(
      static_cast<double>(world.answers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_EngineSubmitPerAnswer)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_EngineSubmitBatched(benchmark::State& state) {
  IngestWorld world(static_cast<int>(state.range(0)));
  const size_t batch = static_cast<size_t>(state.range(1));
  for (auto _ : state) {
    service::IncrementalInferenceEngine engine(
        world.table.schema, world.table.truth.num_rows(), IngestOnlyArgs(),
        nullptr);
    for (size_t lo = 0; lo < world.answers.size(); lo += batch) {
      size_t n = std::min(batch, world.answers.size() - lo);
      engine.SubmitAnswerBatch(world.answers.data() + lo, n);
    }
    benchmark::DoNotOptimize(engine.num_answers());
  }
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["answers_per_sec"] = benchmark::Counter(
      static_cast<double>(world.answers.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_EngineSubmitBatched)
    ->Args({10000, 64})
    ->Args({50000, 64})
    ->Args({50000, 512})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
