#include "service/incremental_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <thread>
#include <utility>

#include "inference/majority_voting.h"
#include "inference/tcrowd_model.h"
#include "test_helpers.h"

namespace tcrowd::service {
namespace {

using tcrowd::testing::ExpectTablesMatch;
using tcrowd::testing::SimWorld;

InferenceArgs SyncArgs(int staleness) {
  InferenceArgs args;
  args.method = "tcrowd";
  args.tcrowd_options = TCrowdOptions::Fast();
  args.staleness_threshold = staleness;
  args.async_refresh = false;
  args.min_answers_for_fit = 8;
  return args;
}

/// Feeds every answer of `world.answers` into `engine` in log order.
void Replay(const SimWorld& world, IncrementalInferenceEngine* engine) {
  for (const Answer& answer : world.answers.answers()) {
    engine->SubmitAnswer(answer);
  }
}

TEST(IncrementalEngine, StalenessTriggersRefresh) {
  SimWorld world(12, /*answers_per_task=*/3);
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(),
                                    SyncArgs(/*staleness=*/100), nullptr);
  Replay(world, &engine);
  // 40 rows x 6 cols x 3 answers = 720 submits, staleness 100 -> >= 7.
  EXPECT_GE(engine.refresh_count(), 7);
  EXPECT_EQ(engine.num_answers(), world.answers.size());
}

TEST(IncrementalEngine, FinalizeMatchesBatchModelExactly) {
  SimWorld world(13, /*answers_per_task=*/3);
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(),
                                    SyncArgs(/*staleness=*/64), nullptr);
  Replay(world, &engine);

  InferenceResult finalized = engine.Finalize();
  // Same options (as normalized by the engine), same answers: the finalized
  // truths must agree with the batch model bit-for-bit.
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = batch.Infer(world.world.schema,
                                         engine.SnapshotAnswers());
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, AsyncRefreshOnPoolConverges) {
  SimWorld world(15, /*answers_per_task=*/3);
  ThreadPool pool(2);
  InferenceArgs args = SyncArgs(/*staleness=*/60);
  args.async_refresh = true;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    &pool);
  Replay(world, &engine);
  engine.WaitForRefresh();
  EXPECT_GE(engine.refresh_count(), 1);

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = batch.Infer(world.world.schema,
                                         engine.SnapshotAnswers());
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, RestrictedVariantsRunTheRestrictedModel) {
  // tc-onlycate must ignore continuous columns entirely (and vice versa),
  // exactly like the batch factory variants.
  SimWorld world(18, /*answers_per_task=*/3);
  InferenceArgs args = SyncArgs(/*staleness=*/64);
  args.method = "tc-onlycate";
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    nullptr);
  Replay(world, &engine);

  const Schema& schema = world.world.schema;
  InferenceResult finalized = engine.Finalize();
  for (int j : schema.ContinuousColumns()) {
    for (int i = 0; i < finalized.estimated_truth.num_rows(); ++i) {
      EXPECT_FALSE(finalized.estimated_truth.at(i, j).valid());
    }
  }
  TCrowdModel batch =
      TCrowdModel::OnlyCategorical(engine.args().tcrowd_options);
  InferenceResult expected = batch.Infer(schema, engine.SnapshotAnswers());
  ExpectTablesMatch(schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, RestrictedMethodWithoutItsTypeFinalizesNothing) {
  // tc-onlycont on an all-categorical table (and tc-onlycate on an
  // all-continuous one) models no column: Finalize() estimates no cell.
  for (const auto& [method, categorical_ratio] :
       {std::pair{"tc-onlycont", 1.0}, std::pair{"tc-onlycate", 0.0}}) {
    sim::TableGeneratorOptions topt = SimWorld::DefaultTable();
    topt.categorical_ratio = categorical_ratio;
    SimWorld world(19, /*answers_per_task=*/3, topt);
    InferenceArgs args = SyncArgs(/*staleness=*/64);
    args.method = method;
    IncrementalInferenceEngine engine(world.world.schema,
                                      world.world.truth.num_rows(), args,
                                      nullptr);
    Replay(world, &engine);
    InferenceResult finalized = engine.Finalize();
    for (int i = 0; i < finalized.estimated_truth.num_rows(); ++i) {
      for (int j = 0; j < world.world.schema.num_columns(); ++j) {
        EXPECT_FALSE(finalized.estimated_truth.at(i, j).valid())
            << method << " cell " << i << "," << j;
      }
    }
  }
}

TEST(IncrementalEngine, BaselineMethodPathMatchesBatchBaseline) {
  SimWorld world(16, /*answers_per_task=*/3);
  InferenceArgs args;
  args.method = "mv";
  args.staleness_threshold = 40;
  args.async_refresh = false;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    nullptr);
  Replay(world, &engine);

  InferenceResult finalized = engine.Finalize();
  InferenceResult expected =
      MajorityVoting().Infer(world.world.schema, engine.SnapshotAnswers());
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, CoalescesRefreshRequestsIntoOneFollowUp) {
  SimWorld world(19, /*answers_per_task=*/3);
  ThreadPool pool(1);
  InferenceArgs args = SyncArgs(/*staleness=*/1000000);
  args.async_refresh = true;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    &pool);

  // Park the pool's only thread so the first scheduled refresh cannot start
  // until we release it: every request below provably lands mid-"refresh".
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  pool.Submit([released] { released.wait(); });

  Replay(world, &engine);  // the 8th answer schedules the first refresh
  for (int r = 0; r < 5; ++r) engine.RequestRefresh();

  release.set_value();
  engine.WaitForRefresh();
  // One initial refresh plus exactly one coalesced follow-up, no matter how
  // many requests queued up behind it.
  EXPECT_EQ(engine.refresh_count(), 2);

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = batch.Infer(world.world.schema,
                                         engine.SnapshotAnswers());
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 1e-12);
}

TEST(IncrementalEngine, RequestRefreshBelowMinimumAnswersIsIgnored) {
  SimWorld world(20, /*answers_per_task=*/0);
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(),
                                    SyncArgs(/*staleness=*/1), nullptr);
  engine.RequestRefresh();
  EXPECT_EQ(engine.refresh_count(), 0);
}

TEST(IncrementalEngine, ShardedFinalizeMatchesShardedBatchBitForBit) {
  // 40 rows x 6 cols x 9 answers = 2160 answers: enough to engage the
  // sharded M-step, so this exercises the tree reduction end to end on a
  // 3-shard executor. Zero tolerance: Finalize and the batch model must
  // agree to the last bit.
  SimWorld world(23, /*answers_per_task=*/9);
  ThreadPool pool(2);
  InferenceArgs args = SyncArgs(/*staleness=*/500);
  args.async_refresh = true;
  args.num_shards = 3;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    &pool);
  Replay(world, &engine);

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = batch.Infer(world.world.schema,
                                         engine.SnapshotAnswers());
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

TEST(IncrementalEngine, RefreshReusesSegmentsNoFullRebuild) {
  // Regression for the per-refresh O(total-answers) rebuild+copy: every
  // answer must be sealed EXACTLY once across all refreshes —
  // refresh-after-K-new-answers does O(K) work, never a pass over the
  // whole log.
  SimWorld world(21, /*answers_per_task=*/3);  // 40 x 6 x 3 = 720 answers
  InferenceArgs args = SyncArgs(/*staleness=*/50);
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    nullptr);
  Replay(world, &engine);
  EXPECT_GE(engine.refresh_count(), 10);

  SegmentedAnswerStore::Stats stats = engine.store_stats();
  EXPECT_EQ(stats.appended, world.answers.size());
  // Every refresh sealed only its new slice: each answer was sealed at most
  // once (only the post-last-refresh remainder is still unsealed), and
  // nothing was ever re-indexed. A rebuild per refresh would have touched
  // ~refresh_count * answers/2 ≈ 5000+ entries here.
  EXPECT_LE(stats.sealed_entries, stats.appended);
  EXPECT_GE(stats.sealed_entries, stats.appended - 50);
  EXPECT_EQ(stats.compactions, 0u);
  EXPECT_EQ(stats.compacted_entries, 0u);
  EXPECT_EQ(static_cast<uint64_t>(stats.sealed_segments),
            static_cast<uint64_t>(engine.refresh_count()));
}

TEST(IncrementalEngine, BatchSubmitFinalizesBitIdenticalToPerAnswer) {
  SimWorld world(22, /*answers_per_task=*/3);
  const std::vector<Answer>& all = world.answers.answers();

  IncrementalInferenceEngine per_answer(world.world.schema,
                                        world.world.truth.num_rows(),
                                        SyncArgs(/*staleness=*/64), nullptr);
  Replay(world, &per_answer);

  IncrementalInferenceEngine batched(world.world.schema,
                                     world.world.truth.num_rows(),
                                     SyncArgs(/*staleness=*/64), nullptr);
  for (size_t lo = 0; lo < all.size(); lo += 37) {
    size_t n = std::min<size_t>(37, all.size() - lo);
    batched.SubmitAnswerBatch(all.data() + lo, n);
  }
  EXPECT_EQ(batched.num_answers(), per_answer.num_answers());

  // Same answers in the same order: the finalized truths must agree with
  // each other and with the batch model, to the last bit.
  InferenceResult a = per_answer.Finalize();
  InferenceResult b = batched.Finalize();
  ExpectTablesMatch(world.world.schema, a.estimated_truth, b.estimated_truth,
                    0.0);
  TCrowdModel batch(batched.args().tcrowd_options);
  InferenceResult expected =
      batch.Infer(world.world.schema, batched.SnapshotAnswers());
  ExpectTablesMatch(world.world.schema, b.estimated_truth,
                    expected.estimated_truth, 0.0);
}

TEST(IncrementalEngine, IngestQueueGivesReadYourWrites) {
  // Answers below every drain trigger sit in the ingest queue; any read
  // must still observe them (reads drain first).
  SimWorld world(24, /*answers_per_task=*/1);
  InferenceArgs args = SyncArgs(/*staleness=*/1000000);
  args.min_answers_for_fit = 1000000;
  args.ingest_batch_size = 1000000;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    nullptr);
  for (int k = 0; k < 5; ++k) {
    engine.SubmitAnswer(world.answers.answer(k));
  }
  EXPECT_EQ(engine.num_answers(), 5u);
  EXPECT_EQ(engine.SnapshotAnswers().size(), 5u);
  EXPECT_EQ(engine.store_stats().appended, 5u);
}

TEST(IncrementalEngine, RefreshRacingBatchIngestStaysConsistent) {
  // Two threads page batches in while a third keeps requesting refreshes:
  // the sealed-segment substrate must absorb everything exactly once and
  // finalize bit-identical to the batch model.
  SimWorld world(25, /*answers_per_task=*/4);
  ThreadPool pool(2);
  InferenceArgs args = SyncArgs(/*staleness=*/40);
  args.async_refresh = true;
  args.ingest_batch_size = 16;
  IncrementalInferenceEngine engine(world.world.schema,
                                    world.world.truth.num_rows(), args,
                                    &pool);

  const std::vector<Answer>& all = world.answers.answers();
  size_t half = all.size() / 2;
  auto submit_range = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; k += 23) {
      size_t n = std::min<size_t>(23, hi - k);
      engine.SubmitAnswerBatch(all.data() + k, n);
    }
  };
  std::thread t1([&] { submit_range(0, half); });
  std::thread t2([&] { submit_range(half, all.size()); });
  for (int r = 0; r < 20; ++r) engine.RequestRefresh();
  t1.join();
  t2.join();
  engine.WaitForRefresh();

  EXPECT_EQ(engine.num_answers(), all.size());
  SegmentedAnswerStore::Stats stats = engine.store_stats();
  EXPECT_EQ(stats.appended, all.size());

  InferenceResult finalized = engine.Finalize();
  TCrowdModel batch(engine.args().tcrowd_options);
  InferenceResult expected = batch.Infer(world.world.schema,
                                         engine.SnapshotAnswers());
  ExpectTablesMatch(world.world.schema, finalized.estimated_truth,
                    expected.estimated_truth, 0.0);
}

TEST(IncrementalEngine, DestructorDrainsInFlightRefresh) {
  SimWorld world(17, /*answers_per_task=*/3);
  ThreadPool pool(2);
  {
    InferenceArgs args = SyncArgs(/*staleness=*/30);
    args.async_refresh = true;
    IncrementalInferenceEngine engine(world.world.schema,
                                      world.world.truth.num_rows(), args,
                                      &pool);
    Replay(world, &engine);
    // Engine destroyed with refreshes possibly still queued/running.
  }
  SUCCEED();
}

}  // namespace
}  // namespace tcrowd::service
