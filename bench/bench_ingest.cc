// Ingestion micro-benchmarks for the segment-based answer substrate:
//
// (a) Engine ingestion: per-answer SubmitAnswer vs batched
//     SubmitAnswerBatch through the IncrementalInferenceEngine's ingest
//     queue (refreshes disabled, so the numbers isolate the ingest path:
//     queue -> drain -> tail segment + per-cell retraction bookkeeping).
// (b) Layout maintenance: the historical rebuild-the-whole-matrix-per-
//     refresh cost vs the segmented store's seal-only-the-tail cost, swept
//     over total answer counts. The claim under test is that
//     refresh-after-K-new-answers does O(K) layout work — the
//     "entries_indexed" counter makes the asymptotic difference explicit
//     (rebuild indexes O(total^2 / K) entries across a run, the store
//     indexes each answer exactly once).

#include <benchmark/benchmark.h>

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "inference/answer_segment.h"
#include "inference/segment_store.h"
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
  // (queue, drain, tail append, per-cell counts) is measured.
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

constexpr int kRefreshEvery = 500;  ///< answers per simulated refresh tick

/// The historical cost model: every refresh re-derived the worker registry
/// and rebuilt the full flat layout over ALL answers collected so far
/// (exactly what AnswerMatrixLayout construction per fit paid).
void BM_LayoutRebuildPerRefresh(benchmark::State& state) {
  IngestWorld world(static_cast<int>(state.range(0)));
  const Schema& schema = world.table.schema;
  std::vector<bool> active(schema.num_columns(), true);
  double entries_indexed = 0.0;
  for (auto _ : state) {
    for (size_t upto = kRefreshEvery; upto <= world.answers.size();
         upto += kRefreshEvery) {
      std::vector<std::vector<double>> col_values(schema.num_columns());
      std::unordered_map<WorkerId, int> worker_to_dense;
      std::vector<WorkerId> worker_ids;
      for (size_t k = 0; k < upto; ++k) {
        const Answer& a = world.answers[k];
        if (schema.column(a.cell.col).type == ColumnType::kContinuous) {
          col_values[a.cell.col].push_back(a.value.number());
        }
        auto [it, inserted] = worker_to_dense.emplace(
            a.worker, static_cast<int>(worker_ids.size()));
        if (inserted) worker_ids.push_back(a.worker);
      }
      std::vector<double> center, scale;
      ComputeColumnStandardization(schema, col_values, &center, &scale);
      auto segment = AnswerSegment::Build(schema, active, center, scale,
                                          world.answers.data(), upto,
                                          worker_to_dense);
      benchmark::DoNotOptimize(segment->size());
      entries_indexed += static_cast<double>(upto);
    }
  }
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["entries_indexed"] =
      entries_indexed / static_cast<double>(state.iterations());
}
BENCHMARK(BM_LayoutRebuildPerRefresh)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// The segmented store: each refresh tick appends the new answers and seals
/// only the tail; all previously sealed segments are reused by pointer.
void BM_LayoutIncrementalSeal(benchmark::State& state) {
  IngestWorld world(static_cast<int>(state.range(0)));
  const Schema& schema = world.table.schema;
  SegmentedAnswerStore::Options opt;
  opt.max_sealed_segments = 0;   // isolate pure reuse (no compaction)
  opt.epoch_growth_factor = 0.0;
  double entries_indexed = 0.0;
  for (auto _ : state) {
    SegmentedAnswerStore store(schema, world.table.truth.num_rows(),
                               std::vector<bool>(schema.num_columns(), true),
                               opt);
    for (size_t lo = 0; lo < world.answers.size(); lo += kRefreshEvery) {
      size_t n = std::min(static_cast<size_t>(kRefreshEvery),
                          world.answers.size() - lo);
      store.AppendBatch(world.answers.data() + lo, n);
      AnswerMatrixSnapshot snap = store.SealAndSnapshot();
      benchmark::DoNotOptimize(snap.num_answers());
    }
    entries_indexed += static_cast<double>(store.stats().sealed_entries);
  }
  state.counters["answers"] = static_cast<double>(world.answers.size());
  state.counters["entries_indexed"] =
      entries_indexed / static_cast<double>(state.iterations());
}
BENCHMARK(BM_LayoutIncrementalSeal)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
