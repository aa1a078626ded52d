// Tests for the paper's core contribution: the unified T-Crowd EM model.
#include "inference/tcrowd_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "inference/majority_voting.h"
#include "math/normal.h"
#include "math/special_functions.h"
#include "math/statistics.h"
#include "platform/metrics.h"
#include "simulation/dataset_synthesizer.h"
#include "test_helpers.h"

namespace tcrowd {
namespace {

TEST(TCrowdModel, RecoversTruthOnCleanData) {
  Schema schema({Schema::MakeCategorical("c", {"a", "b", "c"}),
                 Schema::MakeContinuous("x", 0.0, 100.0)});
  AnswerSet answers(3, 2);
  for (int i = 0; i < 3; ++i) {
    for (WorkerId w = 0; w < 3; ++w) {
      answers.Add(w, CellRef{i, 0}, Value::Categorical(i));
      answers.Add(w, CellRef{i, 1}, Value::Continuous(10.0 * (i + 1) + w * 0.1));
    }
  }
  InferenceResult r = TCrowdModel().Infer(schema, answers);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.estimated_truth.at(i, 0).label(), i);
    EXPECT_NEAR(r.estimated_truth.at(i, 1).number(), 10.0 * (i + 1), 1.0);
  }
}

void ExpectNonDecreasingTrace(const TCrowdState& state,
                              const std::string& label) {
  ASSERT_GE(state.objective_trace.size(), 2u) << label;
  for (size_t i = 1; i < state.objective_trace.size(); ++i) {
    // EM guarantees a monotone MAP objective up to the post-M-step
    // renormalization/clamping and round-off; allow small slack.
    EXPECT_GE(state.objective_trace[i],
              state.objective_trace[i - 1] - 0.02)
        << label << ", iteration " << i;
  }
}

TEST(TCrowdModel, ObjectiveTraceIsNonDecreasing) {
  testing::SimWorld w(801, 4);
  TCrowdOptions no_difficulty;
  no_difficulty.estimate_row_difficulty = false;
  no_difficulty.estimate_col_difficulty = false;
  ExpectNonDecreasingTrace(TCrowdModel().Fit(w.world.schema, w.answers),
                           "default");
  ExpectNonDecreasingTrace(
      TCrowdModel(TCrowdOptions::Fast()).Fit(w.world.schema, w.answers),
      "Fast");
  ExpectNonDecreasingTrace(
      TCrowdModel(no_difficulty).Fit(w.world.schema, w.answers),
      "no difficulties");

  // The fig-12 Celebrity world.
  sim::SynthesizerOptions opt;
  opt.seed = 12000;
  auto celebrity =
      sim::SynthesizeDataset(sim::PaperDataset::kCelebrity, opt);
  const Schema& schema = celebrity.dataset.schema;
  TCrowdState full = TCrowdModel().Fit(schema, celebrity.dataset.answers);
  ExpectNonDecreasingTrace(full, "Celebrity");
  EXPECT_TRUE(full.converged) << "Celebrity hit max_em_iterations";
  ExpectNonDecreasingTrace(
      TCrowdModel::OnlyCategorical().Fit(schema, celebrity.dataset.answers),
      "Celebrity TC-onlyCate");
}

/// The MAP objective at the fitted parameters, recomputed from the state
/// and the raw answers the slow way: each categorical truth is summed out
/// label by label, each continuous truth by the sequential predictive
/// decomposition of its Gaussian marginal over the standardized answers.
double ReferenceObjective(const TCrowdState& state, const AnswerSet& answers) {
  const TCrowdOptions& opt = state.options;
  double ll = 0.0;
  for (int i = 0; i < state.num_rows; ++i) {
    for (int j = 0; j < state.num_cols; ++j) {
      const std::vector<int>& ids = answers.AnswersForCell(i, j);
      if (!state.column_active[j] || ids.empty()) continue;
      const ColumnSpec& col = state.schema.column(j);
      if (col.type == ColumnType::kContinuous) {
        math::Normal belief(0.0, opt.prior_variance);
        for (int id : ids) {
          const Answer& a = answers.answer(id);
          double s = state.AnswerVarianceStd(a.worker, i, j);
          double z = state.Standardize(j, a.value.number());
          ll += math::Normal(belief.mean(), belief.variance() + s).LogPdf(z);
          belief = belief.PosteriorGivenObservation(z, s);
        }
      } else {
        int L = col.num_labels();
        std::vector<double> log_p(L, -std::log(static_cast<double>(L)));
        for (int id : ids) {
          const Answer& a = answers.answer(id);
          double q = state.CategoricalQuality(a.worker, i, j);
          for (int z = 0; z < L; ++z) {
            log_p[z] += z == a.value.label() ? std::log(q)
                                             : std::log((1.0 - q) / (L - 1));
          }
        }
        ll += math::LogSumExp(log_p);
      }
    }
  }
  double inv_dv = 1.0 / (opt.log_difficulty_prior_stddev *
                         opt.log_difficulty_prior_stddev);
  double inv_pv = 1.0 / (opt.log_phi_prior_stddev * opt.log_phi_prior_stddev);
  if (opt.estimate_row_difficulty) {
    for (double alpha : state.row_difficulty) {
      ll -= 0.5 * inv_dv * std::log(alpha) * std::log(alpha);
    }
  }
  if (opt.estimate_col_difficulty) {
    for (double beta : state.col_difficulty) {
      ll -= 0.5 * inv_dv * std::log(beta) * std::log(beta);
    }
  }
  for (const auto& [worker, phi] : state.worker_phi) {
    double v = std::log(phi) - std::log(opt.initial_phi);
    ll -= 0.5 * inv_pv * v * v;
  }
  return ll;
}

TEST(TCrowdModel, ObjectiveTraceEndsAtTheObservedMapObjective) {
  testing::SimWorld w(812, 4);
  const Schema& schema = w.world.schema;
  auto expect_final_entry = [&](const TCrowdState& state,
                                const std::string& label) {
    ASSERT_FALSE(state.objective_trace.empty()) << label;
    double want = ReferenceObjective(state, w.answers);
    EXPECT_NEAR(state.objective_trace.back(), want, 1e-9 * std::fabs(want))
        << label;
  };
  expect_final_entry(TCrowdModel().Fit(schema, w.answers), "default");
  expect_final_entry(
      TCrowdModel::OnlyCategorical().Fit(schema, w.answers),
      "TC-onlyCate");
  expect_final_entry(
      TCrowdModel::OnlyContinuous().Fit(schema, w.answers),
      "TC-onlyCont");
  TCrowdOptions three;
  three.num_threads = 3;
  expect_final_entry(TCrowdModel(three).Fit(schema, w.answers), "3 shards");
}

TEST(TCrowdModel, MStepPassesStayWithinBudget) {
  // One pass at the M-step's start, one after each block's step, and one
  // per step halving.
  testing::SimWorld w(811, 4);
  TCrowdOptions no_difficulty;
  no_difficulty.estimate_row_difficulty = false;
  no_difficulty.estimate_col_difficulty = false;
  for (const auto& [opt, blocks] :
       {std::pair{TCrowdOptions(), 3}, std::pair{no_difficulty, 1}}) {
    TCrowdState state = TCrowdModel(opt).Fit(w.world.schema, w.answers);
    ASSERT_GT(state.em_iterations, 0);
    EXPECT_GE(state.mstep_passes, (1 + blocks) * state.em_iterations)
        << blocks << " blocks";
    EXPECT_LE(state.mstep_passes,
              (1 + blocks) * state.em_iterations + state.mstep_backtracks)
        << blocks << " blocks";
  }
}

TEST(TCrowdModel, BacktrackingFitStaysFiniteAndConverges) {
  // A tiny categorical world with uniformly random-looking labels: 5 rows,
  // 5 workers, 2 labels. Its worker-variance Newton steps overshoot, so
  // the M-step has to halve them.
  const int kLabels[5][5] = {{1, 0, 1, 0, 1},
                             {1, 1, 0, 1, 1},
                             {1, 0, 1, 0, 0},
                             {1, 0, 0, 0, 1},
                             {1, 1, 1, 1, 0}};
  Schema schema({Schema::MakeCategorical("c", {"a", "b"})});
  AnswerSet answers(5, 1);
  for (int i = 0; i < 5; ++i) {
    for (WorkerId w = 0; w < 5; ++w) {
      answers.Add(w, CellRef{i, 0}, Value::Categorical(kLabels[i][w]));
    }
  }
  TCrowdState state = TCrowdModel().Fit(schema, answers);
  EXPECT_GT(state.mstep_backtracks, 0);
  EXPECT_LE(state.mstep_passes,
            4 * state.em_iterations + state.mstep_backtracks);
  EXPECT_TRUE(state.converged);
  ExpectNonDecreasingTrace(state, "tiny world");
  for (double v : state.objective_trace) EXPECT_TRUE(std::isfinite(v));
  for (const auto& [worker, phi] : state.worker_phi) {
    EXPECT_TRUE(std::isfinite(phi) && phi > 0.0) << "worker " << worker;
  }
  for (double a : state.row_difficulty) {
    EXPECT_TRUE(std::isfinite(a) && a > 0.0);
  }
  for (int i = 0; i < 5; ++i) {
    double total = 0.0;
    for (double p : state.posterior(i, 0).probs) {
      EXPECT_TRUE(std::isfinite(p));
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << "row " << i;
  }
}

TEST(TCrowdModel, BeatsMajorityVotingOnLongTailCrowd) {
  // Averaged over a few worlds: single-seed comparisons can flip on one
  // tie-broken cell.
  double er_tc = 0.0, er_mv = 0.0, mnad_tc = 0.0, mnad_mv = 0.0;
  for (uint64_t seed : {802u, 812u, 822u}) {
    testing::SimWorld w(seed, 5);
    InferenceResult tc = TCrowdModel().Infer(w.world.schema, w.answers);
    InferenceResult mv = MajorityVoting().Infer(w.world.schema, w.answers);
    er_tc += Metrics::ErrorRate(w.world.truth, tc.estimated_truth);
    er_mv += Metrics::ErrorRate(w.world.truth, mv.estimated_truth);
    mnad_tc += Metrics::Mnad(w.world.truth, tc.estimated_truth);
    mnad_mv += Metrics::Mnad(w.world.truth, mv.estimated_truth);
  }
  EXPECT_LE(er_tc, er_mv + 0.01);
  EXPECT_LT(mnad_tc, mnad_mv);
}

TEST(TCrowdModel, OvercomesWrongMajority) {
  testing::MajorityWrongScenario s;
  // Extend with extra rows where spammers are visibly random, so the model
  // can learn who is reliable.
  InferenceResult r = TCrowdModel().Infer(s.schema, s.answers);
  EXPECT_GT(r.worker_quality[0], r.worker_quality[2]);
}

TEST(TCrowdModel, WorkerQualityCalibratedToTrueQuality) {
  testing::SimWorld w(803, 6);
  TCrowdState state = TCrowdModel().Fit(w.world.schema, w.answers);
  std::vector<double> est, truth;
  for (const auto& [worker, phi] : state.worker_phi) {
    est.push_back(state.WorkerQuality(worker));
    truth.push_back(w.crowd.TrueQuality(worker));
  }
  // The paper reports correlation ~0.84 on real data (Fig. 4).
  EXPECT_GT(math::PearsonCorrelation(est, truth), 0.6);
}

TEST(TCrowdModel, UnifiedQualityTransfersAcrossDatatypes) {
  // Worker A is precise on continuous columns only (never answers the
  // categorical one except on a single contested cell). The unified model
  // learns A's quality from the continuous evidence and should trust A's
  // single categorical vote over two noisy workers.
  Schema schema({Schema::MakeContinuous("x", 0.0, 100.0),
                 Schema::MakeCategorical("c", {"a", "b", "c", "d"})});
  const int kRows = 25;
  AnswerSet answers(kRows, 2);
  Rng rng(13);
  std::vector<double> tx(kRows);
  for (int i = 0; i < kRows; ++i) tx[i] = rng.Uniform(0.0, 100.0);
  for (int i = 0; i < kRows; ++i) {
    answers.Add(0, CellRef{i, 0},
                Value::Continuous(tx[i] + rng.Gaussian(0.0, 0.3)));
    answers.Add(1, CellRef{i, 0},
                Value::Continuous(tx[i] + rng.Gaussian(0.0, 20.0)));
    answers.Add(2, CellRef{i, 0},
                Value::Continuous(tx[i] + rng.Gaussian(0.0, 20.0)));
  }
  // Contested categorical cell: A says label 0, the two noisy workers say 1.
  answers.Add(0, CellRef{0, 1}, Value::Categorical(0));
  answers.Add(1, CellRef{0, 1}, Value::Categorical(1));
  answers.Add(2, CellRef{0, 1}, Value::Categorical(1));
  InferenceResult r = TCrowdModel().Infer(schema, answers);
  EXPECT_EQ(r.estimated_truth.at(0, 1).label(), 0)
      << "cross-type quality transfer failed";
}

TEST(TCrowdModel, OnlyCateMaskIgnoresContinuous) {
  testing::SimWorld w(804, 4);
  TCrowdModel model = TCrowdModel::OnlyCategorical();
  EXPECT_EQ(model.name(), "TC-onlyCate");
  InferenceResult r = model.Infer(w.world.schema, w.answers);
  for (int j : w.world.schema.ContinuousColumns()) {
    for (int i = 0; i < w.world.truth.num_rows(); ++i) {
      EXPECT_FALSE(r.estimated_truth.at(i, j).valid());
    }
  }
  for (int j : w.world.schema.CategoricalColumns()) {
    EXPECT_TRUE(r.estimated_truth.at(0, j).valid());
  }
}

TEST(TCrowdModel, OnlyContMaskIgnoresCategorical) {
  testing::SimWorld w(805, 4);
  TCrowdModel model = TCrowdModel::OnlyContinuous();
  InferenceResult r = model.Infer(w.world.schema, w.answers);
  for (int j : w.world.schema.CategoricalColumns()) {
    for (int i = 0; i < w.world.truth.num_rows(); ++i) {
      EXPECT_FALSE(r.estimated_truth.at(i, j).valid());
    }
  }
}

TEST(TCrowdModel, RestrictedVariantWithoutItsTypeEstimatesNothing) {
  // A restricted variant on a table without its datatype models no column,
  // so it estimates no cell (it must not fall back to the full model).
  sim::TableGeneratorOptions all_cate = testing::SimWorld::DefaultTable();
  all_cate.categorical_ratio = 1.0;
  sim::TableGeneratorOptions all_cont = testing::SimWorld::DefaultTable();
  all_cont.categorical_ratio = 0.0;
  testing::SimWorld cate(807, 3, all_cate);
  testing::SimWorld cont(808, 3, all_cont);
  for (const auto& [result, world] :
       {std::pair{TCrowdModel::OnlyContinuous().Infer(cate.world.schema,
                                                      cate.answers),
                  &cate},
        std::pair{TCrowdModel::OnlyCategorical().Infer(cont.world.schema,
                                                       cont.answers),
                  &cont}}) {
    for (int i = 0; i < world->world.truth.num_rows(); ++i) {
      for (int j = 0; j < world->world.schema.num_columns(); ++j) {
        EXPECT_FALSE(result.estimated_truth.at(i, j).valid())
            << "cell " << i << "," << j;
      }
    }
  }
}

TEST(TCrowdModel, FullModelBeatsRestrictedVariants) {
  // The paper's Table 7 claim: pooling both datatypes beats either alone.
  testing::SimWorld w(806, 4);
  InferenceResult full = TCrowdModel().Infer(w.world.schema, w.answers);
  InferenceResult cate =
      TCrowdModel::OnlyCategorical().Infer(w.world.schema, w.answers);
  InferenceResult cont =
      TCrowdModel::OnlyContinuous().Infer(w.world.schema, w.answers);
  auto cat_cols = w.world.schema.CategoricalColumns();
  auto cont_cols = w.world.schema.ContinuousColumns();
  EXPECT_LE(Metrics::ErrorRate(w.world.truth, full.estimated_truth, cat_cols),
            Metrics::ErrorRate(w.world.truth, cate.estimated_truth, cat_cols) +
                0.02);
  EXPECT_LE(Metrics::Mnad(w.world.truth, full.estimated_truth, cont_cols),
            Metrics::Mnad(w.world.truth, cont.estimated_truth, cont_cols) +
                0.02);
}

TEST(TCrowdModel, RowDifficultyRecovered) {
  // Rows 0..4 easy (alpha=0.3), rows 5..9 hard (alpha=4): estimated alphas
  // should separate the groups.
  sim::TableGeneratorOptions topt;
  topt.num_rows = 10;
  topt.num_cols = 6;
  topt.categorical_ratio = 0.5;
  Rng trng(14);
  sim::GeneratedTable world = sim::GenerateTable(topt, &trng);
  for (int i = 0; i < 10; ++i) world.row_difficulty[i] = i < 5 ? 0.3 : 4.0;
  std::fill(world.col_difficulty.begin(), world.col_difficulty.end(), 1.0);
  sim::CrowdOptions copt;
  copt.num_workers = 30;
  copt.phi_median = 0.3;
  copt.phi_log_sigma = 0.2;
  copt.unfamiliar_prob = 0.0;
  sim::CrowdSimulator crowd(copt, world.schema, world.truth,
                            world.row_difficulty, world.col_difficulty,
                            sim::CrowdSimulator::DefaultColumnScales(
                                world.schema),
                            Rng(15));
  AnswerSet answers(10, 6);
  crowd.SeedAnswers(15, &answers);
  TCrowdState state = TCrowdModel().Fit(world.schema, answers);
  double easy_mean = 0.0, hard_mean = 0.0;
  for (int i = 0; i < 5; ++i) easy_mean += state.row_difficulty[i];
  for (int i = 5; i < 10; ++i) hard_mean += state.row_difficulty[i];
  EXPECT_LT(easy_mean, hard_mean);
}

TEST(TCrowdModel, StandardizationMakesScalesIrrelevant) {
  // Same latent world expressed in two different units must produce the
  // same error rates and (normalized) MNAD.
  Schema small({Schema::MakeContinuous("x", 0.0, 1.0)});
  Schema big({Schema::MakeContinuous("x", 0.0, 1000.0)});
  const int kRows = 20;
  AnswerSet a_small(kRows, 1), a_big(kRows, 1);
  Table t_small(small, kRows), t_big(big, kRows);
  Rng rng(16);
  for (int i = 0; i < kRows; ++i) {
    double t = rng.Uniform(0.2, 0.8);
    t_small.Set(i, 0, Value::Continuous(t));
    t_big.Set(i, 0, Value::Continuous(t * 1000.0));
    for (WorkerId w = 0; w < 4; ++w) {
      double noise = rng.Gaussian(0.0, 0.05 * (w + 1));
      a_small.Add(w, CellRef{i, 0}, Value::Continuous(t + noise));
      a_big.Add(w, CellRef{i, 0}, Value::Continuous((t + noise) * 1000.0));
    }
  }
  InferenceResult r_small = TCrowdModel().Infer(small, a_small);
  InferenceResult r_big = TCrowdModel().Infer(big, a_big);
  EXPECT_NEAR(Metrics::Mnad(t_small, r_small.estimated_truth),
              Metrics::Mnad(t_big, r_big.estimated_truth), 1e-6);
}

TEST(TCrowdModel, PosteriorVarianceShrinksWithAnswers) {
  // Backdrop rows keep the column standardization and worker variances
  // comparable between the two datasets; only the target cell's answer
  // count differs.
  Schema schema({Schema::MakeContinuous("x", 0.0, 100.0)});
  auto build = [&](int target_answers) {
    Rng local(17);
    AnswerSet answers(12, 1);
    for (int i = 1; i < 12; ++i) {
      double t = 8.0 * i;
      for (WorkerId w = 0; w < 12; ++w) {
        answers.Add(w, CellRef{i, 0},
                    Value::Continuous(t + local.Gaussian(0, 2)));
      }
    }
    for (WorkerId w = 0; w < target_answers; ++w) {
      answers.Add(w, CellRef{0, 0},
                  Value::Continuous(50.0 + local.Gaussian(0, 2)));
    }
    return answers;
  };
  TCrowdModel model;
  double v_few = model.Fit(schema, build(2)).posterior(0, 0).variance;
  double v_many = model.Fit(schema, build(12)).posterior(0, 0).variance;
  EXPECT_LT(v_many, v_few);
}

TEST(TCrowdModel, DifficultyScaleDegeneracyIsFixed) {
  testing::SimWorld w(807, 4);
  TCrowdState state = TCrowdModel().Fit(w.world.schema, w.answers);
  // Geometric means of alpha and beta are normalized to ~1.
  double log_alpha = 0.0, log_beta = 0.0;
  for (double a : state.row_difficulty) log_alpha += std::log(a);
  for (double b : state.col_difficulty) log_beta += std::log(b);
  EXPECT_NEAR(log_alpha / state.row_difficulty.size(), 0.0, 1e-6);
  EXPECT_NEAR(log_beta / state.col_difficulty.size(), 0.0, 1e-6);
}

TEST(TCrowdModel, HandlesSpammerFloodGracefully) {
  // Failure injection: half the crowd answers uniformly at random.
  sim::TableGeneratorOptions topt;
  topt.num_rows = 30;
  topt.num_cols = 4;
  Rng trng(18);
  sim::GeneratedTable world = sim::GenerateTable(topt, &trng);
  AnswerSet answers(30, 4);
  Rng rng(19);
  for (int i = 0; i < 30; ++i) {
    for (int j = 0; j < 4; ++j) {
      const ColumnSpec& col = world.schema.column(j);
      for (WorkerId w = 0; w < 3; ++w) {  // good workers
        Value truth = world.truth.at(i, j);
        if (col.type == ColumnType::kCategorical) {
          int label = rng.Bernoulli(0.9) ? truth.label()
                                         : rng.UniformInt(0, col.num_labels() - 1);
          answers.Add(w, CellRef{i, j}, Value::Categorical(label));
        } else {
          answers.Add(w, CellRef{i, j},
                      Value::Continuous(truth.number() +
                                        rng.Gaussian(0.0, 10.0)));
        }
      }
      for (WorkerId w = 3; w < 6; ++w) {  // spammers
        if (col.type == ColumnType::kCategorical) {
          answers.Add(w, CellRef{i, j},
                      Value::Categorical(rng.UniformInt(0, col.num_labels() - 1)));
        } else {
          answers.Add(w, CellRef{i, j},
                      Value::Continuous(rng.Uniform(col.min_value,
                                                    col.max_value)));
        }
      }
    }
  }
  TCrowdState state = TCrowdModel().Fit(world.schema, answers);
  // Spammers must receive clearly lower quality than good workers.
  double good = (state.WorkerQuality(0) + state.WorkerQuality(1) +
                 state.WorkerQuality(2)) / 3.0;
  double spam = (state.WorkerQuality(3) + state.WorkerQuality(4) +
                 state.WorkerQuality(5)) / 3.0;
  EXPECT_GT(good, spam + 0.2);
  InferenceResult r = TCrowdModel::StateToResult(state);
  EXPECT_LT(Metrics::ErrorRate(world.truth, r.estimated_truth), 0.25);
}

TEST(TCrowdModel, EmptyAnswersNoCrash) {
  Schema schema({Schema::MakeCategorical("c", {"a", "b"}),
                 Schema::MakeContinuous("x", 0.0, 1.0)});
  AnswerSet answers(2, 2);
  EXPECT_NO_FATAL_FAILURE(TCrowdModel().Infer(schema, answers));
}

TEST(TCrowdModel, SingleAnswerPerCell) {
  Schema schema({Schema::MakeCategorical("c", {"a", "b", "c"})});
  AnswerSet answers(2, 1);
  answers.Add(0, CellRef{0, 0}, Value::Categorical(1));
  answers.Add(0, CellRef{1, 0}, Value::Categorical(2));
  InferenceResult r = TCrowdModel().Infer(schema, answers);
  EXPECT_EQ(r.estimated_truth.at(0, 0).label(), 1);
  EXPECT_EQ(r.estimated_truth.at(1, 0).label(), 2);
}

TEST(TCrowdModel, FastOptionsConvergeFewerIterations) {
  testing::SimWorld w(808, 4);
  TCrowdState fast = TCrowdModel(TCrowdOptions::Fast())
                         .Fit(w.world.schema, w.answers);
  EXPECT_LE(fast.em_iterations, 12);
  // And still produces sane estimates.
  InferenceResult r = TCrowdModel::StateToResult(fast);
  EXPECT_LT(Metrics::ErrorRate(w.world.truth, r.estimated_truth), 0.4);
}

TEST(TCrowdModel, StateHelpersConsistent) {
  testing::SimWorld w(809, 4);
  TCrowdState state = TCrowdModel().Fit(w.world.schema, w.answers);
  WorkerId u = w.answers.Workers().front();
  double s = state.AnswerVarianceStd(u, 2, 1);
  EXPECT_NEAR(s, state.row_difficulty[2] * state.col_difficulty[1] *
                     state.WorkerPhi(u),
              1e-12);
  double q = state.CategoricalQuality(u, 2, 1);
  EXPECT_NEAR(q, std::erf(state.options.epsilon / std::sqrt(2.0 * s)), 1e-9);
  // Unknown workers fall back to the default phi.
  EXPECT_DOUBLE_EQ(state.WorkerPhi(987654), state.default_phi);
}

TEST(TCrowdModel, DisabledDifficultiesStayNeutral) {
  testing::SimWorld w(810, 3);
  TCrowdOptions opt;
  opt.estimate_row_difficulty = false;
  opt.estimate_col_difficulty = false;
  TCrowdState state = TCrowdModel(opt).Fit(w.world.schema, w.answers);
  for (double a : state.row_difficulty) EXPECT_DOUBLE_EQ(a, 1.0);
  for (double b : state.col_difficulty) EXPECT_DOUBLE_EQ(b, 1.0);
}

TEST(TCrowdModel, WarmStartFromAConvergedFitStopsAtOnce) {
  testing::SimWorld w(812, 4);
  const TCrowdModel model;  // paper-faithful
  TCrowdState cold = model.Fit(w.world.schema, w.answers);
  ASSERT_TRUE(cold.converged);
  TCrowdState warm = model.Fit(w.world.schema, w.answers, &cold);
  EXPECT_TRUE(warm.converged);
  EXPECT_LE(warm.em_iterations, 2);
  InferenceResult a = TCrowdModel::StateToResult(cold);
  InferenceResult b = TCrowdModel::StateToResult(warm);
  for (int i = 0; i < cold.num_rows; ++i) {
    for (int j = 0; j < cold.num_cols; ++j) {
      const Value& va = a.estimated_truth.at(i, j);
      const Value& vb = b.estimated_truth.at(i, j);
      if (w.world.schema.column(j).type == ColumnType::kCategorical) {
        EXPECT_EQ(va.label(), vb.label()) << "cell " << i << "," << j;
      } else {
        EXPECT_NEAR(va.number(), vb.number(), 1e-4 * cold.col_scale[j])
            << "cell " << i << "," << j;
      }
    }
  }
}

TEST(TCrowdModel, WarmStartSeedsEveryParameterFromThePreviousFit) {
  testing::SimWorld w(813, 3);
  // The previous fit saw every worker but one.
  const std::vector<WorkerId> workers = w.answers.Workers();
  const WorkerId newcomer = workers[0];
  const WorkerId extreme = workers[1];
  AnswerSet earlier(w.answers.num_rows(), w.answers.num_cols());
  for (const Answer& a : w.answers.answers()) {
    if (a.worker != newcomer) earlier.Add(a);
  }
  TCrowdState warm = TCrowdModel().Fit(w.world.schema, earlier);
  ASSERT_EQ(warm.worker_phi.count(newcomer), 0u);
  // A seed beyond log_param_bound is clamped into it.
  warm.worker_phi[extreme] = std::exp(20.0);

  // With no EM iteration, the exported parameters are the seeds.
  TCrowdOptions no_em;
  no_em.max_em_iterations = 0;
  TCrowdState seeded =
      TCrowdModel(no_em).Fit(w.world.schema, w.answers, &warm);
  EXPECT_EQ(seeded.em_iterations, 0);
  ASSERT_EQ(seeded.row_difficulty.size(), warm.row_difficulty.size());
  for (size_t i = 0; i < warm.row_difficulty.size(); ++i) {
    EXPECT_NEAR(seeded.row_difficulty[i], warm.row_difficulty[i],
                1e-12 * warm.row_difficulty[i]);
  }
  for (size_t j = 0; j < warm.col_difficulty.size(); ++j) {
    EXPECT_NEAR(seeded.col_difficulty[j], warm.col_difficulty[j],
                1e-12 * warm.col_difficulty[j]);
  }
  ASSERT_EQ(seeded.worker_phi.size(), workers.size());
  for (const auto& [u, phi] : seeded.worker_phi) {
    double expected = u == newcomer  ? warm.default_phi
                      : u == extreme ? std::exp(no_em.log_param_bound)
                                     : warm.worker_phi.at(u);
    EXPECT_NEAR(phi, expected, 1e-12 * expected) << "worker " << u;
  }

  // A difficulty block that is not estimated stays neutral.
  no_em.estimate_row_difficulty = false;
  TCrowdState no_alpha =
      TCrowdModel(no_em).Fit(w.world.schema, w.answers, &warm);
  for (double a : no_alpha.row_difficulty) EXPECT_DOUBLE_EQ(a, 1.0);
}

TEST(TCrowdModel, WarmRefitsOnAGrowingLogTakeFewerIterations) {
  testing::SimWorld w(811, 4);
  // The world's answers arrive in a fixed shuffled order; a refit runs
  // every 32 arrivals, as the service's policy refits do.
  std::vector<Answer> arrivals = w.answers.answers();
  Rng rng(811);
  rng.Shuffle(&arrivals);
  const TCrowdModel model(TCrowdOptions::Fast());
  AnswerSet log(w.answers.num_rows(), w.answers.num_cols());
  TCrowdState warm;
  int refits = 0, cold_iterations = 0, warm_iterations = 0;
  int warm_converged = 0;
  for (size_t n = 0; n < arrivals.size(); ++n) {
    log.Add(arrivals[n]);
    if ((n + 1) % 32 != 0) continue;
    TCrowdState cold = model.Fit(w.world.schema, log);
    if (refits++ == 0) {
      warm = std::move(cold);  // the first refit has nothing to start from
      continue;
    }
    warm = model.Fit(w.world.schema, log, &warm);
    cold_iterations += cold.em_iterations;
    warm_iterations += warm.em_iterations;
    warm_converged += warm.converged ? 1 : 0;
  }
  const int warm_refits = refits - 1;
  ASSERT_GE(warm_refits, 20);
  EXPECT_LT(warm_iterations, cold_iterations);
  EXPECT_GT(2 * warm_converged, warm_refits);
}

TEST(TCrowdModelDeathTest, WarmStartOfAnotherShapeIsRefused) {
  testing::SimWorld w(814, 2);
  TCrowdState warm =
      TCrowdModel(TCrowdOptions::Fast()).Fit(w.world.schema, w.answers);
  AnswerSet fewer_rows(w.answers.num_rows() - 1, w.answers.num_cols());
  EXPECT_DEATH(TCrowdModel().Fit(w.world.schema, fewer_rows, &warm),
               "different table shape");
}

}  // namespace
}  // namespace tcrowd
