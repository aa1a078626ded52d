// End-to-end exercise of the online service layer: a simulated crowd is
// replayed through CrowdService by the LoadGenerator with concurrent driver
// threads, and the incremental engine's finalized truths are checked
// against batch T-Crowd inference on the same answer set.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "assignment/policies.h"
#include "inference/tcrowd_model.h"
#include "platform/metrics.h"
#include "service/crowd_service.h"
#include "simulation/load_generator.h"
#include "test_helpers.h"

namespace tcrowd::service {
namespace {

using tcrowd::testing::SimWorld;

ServiceConfig ServingConfig(int target) {
  ServiceConfig config;
  config.target_answers_per_task = target;
  config.num_threads = 2;
  config.inference.method = "tcrowd";
  config.inference.tcrowd_options = TCrowdOptions::Fast();
  config.inference.staleness_threshold = 60;
  config.inference.num_shards = 2;
  config.router.backfill = BackfillStrategy::kLeastAnswered;
  config.router.refresh_every_answers = 80;
  return config;
}

TEST(ServiceIntegration, ReplayDrainsBudgetAndMatchesBatchInference) {
  // 20x4 mixed table, 12 workers; target 4 answers per task = 320 answers.
  sim::TableGeneratorOptions topt;
  topt.num_rows = 20;
  topt.num_cols = 4;
  topt.categorical_ratio = 0.5;
  sim::CrowdOptions copt = SimWorld::DefaultCrowd();
  copt.num_workers = 12;
  SimWorld world(91, /*answers_per_task=*/0, topt, copt);

  const int kTarget = 4;
  CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                   std::make_unique<EntropyPolicy>(TCrowdOptions::Fast()),
                   ServingConfig(kTarget));

  sim::LoadGeneratorOptions load;
  load.max_arrivals = 100000;
  load.tasks_per_request = 2;
  load.abandon_prob = 0.1;  // exercise lease release + backfill
  load.num_driver_threads = 2;
  load.seed = 5;
  sim::LoadGenerator generator(&world.crowd, &svc, load);
  sim::LoadReport report = generator.Run();

  // The replay must drain the whole budget: every task finalized, answer
  // counts exactly at target, nothing rejected.
  const int num_cells = world.world.truth.num_rows() *
                        world.world.schema.num_columns();
  EXPECT_TRUE(svc.Drained());
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.answers, static_cast<int64_t>(num_cells) * kTarget);
  EXPECT_GT(report.abandoned_sessions, 0);

  ServiceStats stats = report.final_stats;
  EXPECT_EQ(stats.tasks_finalized, num_cells);
  EXPECT_EQ(stats.budget_spent, static_cast<int64_t>(num_cells) * kTarget);
  EXPECT_EQ(stats.budget_remaining, 0);
  EXPECT_EQ(stats.sessions_active, 0);
  // Refreshes run asynchronously, so final_stats may predate the first
  // install; wait out the in-flight one before counting.
  svc.engine().WaitForRefresh();
  EXPECT_GE(svc.Stats().engine_refreshes, 1);
  for (int i = 0; i < world.world.truth.num_rows(); ++i) {
    for (int j = 0; j < world.world.schema.num_columns(); ++j) {
      EXPECT_EQ(svc.AnswerCount(CellRef{i, j}), kTarget);
      EXPECT_EQ(svc.task_state(CellRef{i, j}), TaskState::kFinalized);
    }
  }

  // Metrics registry agrees with the report.
  EXPECT_EQ(svc.metrics().counter("service.answers_accepted").value(),
            report.answers);
  EXPECT_EQ(svc.metrics().latency("service.submit_answer").count(),
            report.answers);

  // Incremental-vs-batch equivalence: the finalized truths must match batch
  // T-Crowd inference over the very same answer matrix.
  InferenceResult finalized = svc.Finalize();
  AnswerSet collected = svc.engine().SnapshotAnswers();
  EXPECT_EQ(collected.size(), static_cast<size_t>(report.answers));
  TCrowdModel batch(svc.engine().args().tcrowd_options);
  InferenceResult expected = batch.Infer(world.world.schema, collected);
  for (int i = 0; i < world.world.truth.num_rows(); ++i) {
    for (int j = 0; j < world.world.schema.num_columns(); ++j) {
      const Value& got = finalized.estimated_truth.at(i, j);
      const Value& want = expected.estimated_truth.at(i, j);
      ASSERT_EQ(got.valid(), want.valid());
      if (!got.valid()) continue;
      if (got.is_categorical()) {
        EXPECT_EQ(got.label(), want.label()) << "cell " << i << "," << j;
      } else {
        EXPECT_NEAR(got.number(), want.number(), 1e-9)
            << "cell " << i << "," << j;
      }
    }
  }

  // Sanity: with 4 answers per task the estimate should beat coin flips.
  double error = Metrics::ErrorRate(world.world.truth,
                                    finalized.estimated_truth);
  EXPECT_LT(error, 0.5);
}

TEST(ServiceIntegration, BatchReplayDrainsAndMatchesBatchInference) {
  // The same end-to-end drain, but paged through SubmitAnswerBatch (the
  // LoadGenerator batch replay mode): accounting must balance exactly and
  // the finalized truths must still match batch T-Crowd bit for bit.
  sim::TableGeneratorOptions topt;
  topt.num_rows = 16;
  topt.num_cols = 4;
  topt.categorical_ratio = 0.5;
  sim::CrowdOptions copt = SimWorld::DefaultCrowd();
  copt.num_workers = 10;
  SimWorld world(93, /*answers_per_task=*/0, topt, copt);

  const int kTarget = 3;
  CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                   std::make_unique<LoopingPolicy>(), ServingConfig(kTarget));

  sim::LoadGeneratorOptions load;
  load.max_arrivals = 100000;
  load.tasks_per_request = 6;
  load.batch_size = 4;  // pages of 4 through SubmitAnswerBatch
  load.num_driver_threads = 2;
  load.seed = 9;
  sim::LoadGenerator generator(&world.crowd, &svc, load);
  sim::LoadReport report = generator.Run();

  const int num_cells =
      world.world.truth.num_rows() * world.world.schema.num_columns();
  EXPECT_TRUE(svc.Drained());
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(report.answers, static_cast<int64_t>(num_cells) * kTarget);
  EXPECT_GT(report.batches, 0);
  EXPECT_EQ(svc.metrics().counter("service.answer_batches").value(),
            report.batches);
  EXPECT_EQ(svc.metrics().counter("service.answers_accepted").value(),
            report.answers);
  EXPECT_EQ(svc.engine().num_answers(),
            static_cast<size_t>(report.answers));

  InferenceResult finalized = svc.Finalize();
  AnswerSet collected = svc.engine().SnapshotAnswers();
  TCrowdModel batch(svc.engine().args().tcrowd_options);
  InferenceResult expected = batch.Infer(world.world.schema, collected);
  for (int i = 0; i < world.world.truth.num_rows(); ++i) {
    for (int j = 0; j < world.world.schema.num_columns(); ++j) {
      const Value& got = finalized.estimated_truth.at(i, j);
      const Value& want = expected.estimated_truth.at(i, j);
      ASSERT_EQ(got.valid(), want.valid());
      if (!got.valid()) continue;
      if (got.is_categorical()) {
        EXPECT_EQ(got.label(), want.label()) << "cell " << i << "," << j;
      } else {
        EXPECT_EQ(got.number(), want.number()) << "cell " << i << "," << j;
      }
    }
  }
}

/// Bit-level comparison of two answer logs: same length, same chronological
/// order, same workers/cells/values to the last bit.
void ExpectAnswerLogsIdentical(const AnswerSet& a, const AnswerSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    const Answer& x = a.answer(static_cast<int>(k));
    const Answer& y = b.answer(static_cast<int>(k));
    ASSERT_EQ(x.worker, y.worker) << "answer " << k;
    ASSERT_EQ(x.cell.row, y.cell.row) << "answer " << k;
    ASSERT_EQ(x.cell.col, y.cell.col) << "answer " << k;
    ASSERT_EQ(x.value.is_categorical(), y.value.is_categorical())
        << "answer " << k;
    if (x.value.is_categorical()) {
      ASSERT_EQ(x.value.label(), y.value.label()) << "answer " << k;
    } else {
      ASSERT_EQ(x.value.number(), y.value.number()) << "answer " << k;
    }
  }
}

TEST(ServiceIntegration, DeterministicReplayIsThreadCountInvariant) {
  // The deterministic replay contract: with the default deterministic mode,
  // the replayed history — and therefore the finalized truths — is a pure
  // function of the options, identical for ANY num_driver_threads. Run the
  // same campaign with 1 and 4 drivers and demand bit-equality end to end.
  auto run = [](int threads, AnswerSet* log, Table* truths, Schema* schema,
                sim::LoadReport* out) {
    sim::TableGeneratorOptions topt;
    topt.num_rows = 16;
    topt.num_cols = 4;
    topt.categorical_ratio = 0.5;
    sim::CrowdOptions copt = SimWorld::DefaultCrowd();
    copt.num_workers = 10;
    SimWorld world(94, /*answers_per_task=*/0, topt, copt);
    *schema = world.world.schema;

    CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                     std::make_unique<LoopingPolicy>(), ServingConfig(3));
    sim::LoadGeneratorOptions load;
    load.tasks_per_request = 3;
    load.abandon_prob = 0.1;
    load.num_driver_threads = threads;
    load.seed = 21;
    sim::LoadGenerator generator(&world.crowd, &svc, load);
    *out = generator.Run();
    EXPECT_TRUE(svc.Drained()) << threads << " threads";
    *log = svc.engine().SnapshotAnswers();
    *truths = svc.Finalize().estimated_truth;
  };

  AnswerSet log1(0, 0), log4(0, 0);
  Table truths1, truths4;
  Schema schema1, schema4;
  sim::LoadReport r1, r4;
  run(1, &log1, &truths1, &schema1, &r1);
  run(4, &log4, &truths4, &schema4, &r4);

  EXPECT_EQ(r1.arrivals, r4.arrivals);
  EXPECT_EQ(r1.answers, r4.answers);
  EXPECT_EQ(r1.abandoned_sessions, r4.abandoned_sessions);
  EXPECT_EQ(r1.rejected, r4.rejected);
  ExpectAnswerLogsIdentical(log1, log4);
  // Zero tolerance on the finalized truths — not "close", identical.
  tcrowd::testing::ExpectTablesMatch(schema1, truths1, truths4, 0.0);
}

TEST(ServiceIntegration, DeterministicCrashPointIsThreadCountInvariant) {
  // The kill switch must trip on the same arrival regardless of thread
  // count: the durable prefix a crash leaves behind is reproducible.
  auto run = [](int threads, AnswerSet* log) {
    sim::TableGeneratorOptions topt;
    topt.num_rows = 16;
    topt.num_cols = 4;
    SimWorld world(95, /*answers_per_task=*/0, topt);
    CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                     std::make_unique<LoopingPolicy>(), ServingConfig(3));
    sim::LoadGeneratorOptions load;
    load.tasks_per_request = 3;
    load.stop_after_answers = 77;
    load.num_driver_threads = threads;
    load.seed = 33;
    sim::LoadGenerator generator(&world.crowd, &svc, load);
    sim::LoadReport report = generator.Run();
    EXPECT_TRUE(report.stopped_early);
    EXPECT_EQ(report.answers, 77);
    *log = svc.engine().SnapshotAnswers();
  };
  AnswerSet log1(0, 0), log4(0, 0);
  run(1, &log1);
  run(4, &log4);
  ExpectAnswerLogsIdentical(log1, log4);
}

TEST(ServiceIntegration, ConcurrentDriversKeepAccountingConsistent) {
  // Hammer the service from 4 driver threads with a cheap policy/engine and
  // verify the books still balance exactly.
  sim::TableGeneratorOptions topt;
  topt.num_rows = 30;
  topt.num_cols = 5;
  SimWorld world(92, /*answers_per_task=*/0, topt);

  ServiceConfig config;
  config.target_answers_per_task = 6;
  config.num_threads = 2;
  config.inference.method = "mv";
  config.inference.staleness_threshold = 100;
  CrowdService svc(world.world.schema, world.world.truth.num_rows(),
                   std::make_unique<LoopingPolicy>(), config);

  sim::LoadGeneratorOptions load;
  load.tasks_per_request = 3;
  load.abandon_prob = 0.15;
  load.num_driver_threads = 4;
  load.seed = 6;
  sim::LoadGenerator generator(&world.crowd, &svc, load);
  sim::LoadReport report = generator.Run();

  const int64_t expected_answers =
      static_cast<int64_t>(world.world.truth.num_rows()) *
      world.world.schema.num_columns() * 6;
  EXPECT_TRUE(svc.Drained());
  EXPECT_EQ(report.answers, expected_answers);
  EXPECT_EQ(report.rejected, 0);
  EXPECT_EQ(svc.engine().num_answers(),
            static_cast<size_t>(expected_answers));
  ServiceStats stats = svc.Stats();
  EXPECT_EQ(stats.budget_spent, expected_answers);
  EXPECT_EQ(stats.budget_remaining, 0);
  EXPECT_EQ(stats.tasks_finalized,
            world.world.truth.num_rows() * world.world.schema.num_columns());
}

}  // namespace
}  // namespace tcrowd::service
