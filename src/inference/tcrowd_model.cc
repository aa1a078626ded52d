#include "inference/tcrowd_model.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "inference/answer_segment.h"
#include "inference/em_executor.h"
#include "math/normal.h"
#include "math/special_functions.h"
#include "math/statistics.h"

namespace tcrowd {

using math::ClampProb;
using math::Erf;

namespace {

/// Layout of the flat log-parameter vector handed to the optimizer:
/// [ln alpha_0..N) [ln beta_0..M) [ln phi_0..W) — alpha/beta blocks are
/// omitted when the corresponding difficulty is not estimated.
struct ParamLayout {
  int num_rows = 0;
  int num_cols = 0;
  int num_workers = 0;
  bool with_alpha = true;
  bool with_beta = true;

  int alpha_offset() const { return 0; }
  int beta_offset() const { return with_alpha ? num_rows : 0; }
  int phi_offset() const {
    return beta_offset() + (with_beta ? num_cols : 0);
  }
  int size() const { return phi_offset() + num_workers; }
};

/// Per-parameter exp(ln x) tables, refreshed once per pass instead of
/// re-evaluating exp() for all three factors on every answer. A difficulty
/// that is not estimated reads 1. After the EM loop the tables hold the
/// fitted alpha, beta and phi themselves.
struct ExpParams {
  std::vector<double> alpha, beta, phi;

  void Refresh(const ParamLayout& layout, const std::vector<double>& p) {
    alpha.assign(layout.num_rows, 1.0);
    if (layout.with_alpha) {
      for (int i = 0; i < layout.num_rows; ++i) {
        alpha[i] = std::exp(p[layout.alpha_offset() + i]);
      }
    }
    beta.assign(layout.num_cols, 1.0);
    if (layout.with_beta) {
      for (int j = 0; j < layout.num_cols; ++j) {
        beta[j] = std::exp(p[layout.beta_offset() + j]);
      }
    }
    phi.resize(layout.num_workers);
    for (int w = 0; w < layout.num_workers; ++w) {
      phi[w] = std::exp(p[layout.phi_offset() + w]);
    }
  }
};

}  // namespace

const CellPosterior& TCrowdState::posterior(int row, int col) const {
  size_t idx = static_cast<size_t>(row) * num_cols + col;
  TCROWD_CHECK(idx < posteriors.size());
  return posteriors[idx];
}

double TCrowdState::WorkerPhi(WorkerId u) const {
  auto it = worker_phi.find(u);
  return it != worker_phi.end() ? it->second : default_phi;
}

double TCrowdState::WorkerQuality(WorkerId u) const {
  return Erf(options.epsilon / std::sqrt(2.0 * WorkerPhi(u)));
}

double TCrowdState::AnswerVarianceStd(WorkerId u, int row, int col) const {
  return row_difficulty[row] * col_difficulty[col] * WorkerPhi(u);
}

double TCrowdState::CategoricalQuality(WorkerId u, int row, int col) const {
  double s = AnswerVarianceStd(u, row, col);
  return ClampProb(Erf(options.epsilon / std::sqrt(2.0 * s)));
}

double TCrowdState::Standardize(int col, double x) const {
  return (x - col_center[col]) / col_scale[col];
}

double TCrowdState::Unstandardize(int col, double z) const {
  return col_center[col] + z * col_scale[col];
}

double TCrowdState::StdPosteriorVariance(int row, int col) const {
  const CellPosterior& post = posterior(row, col);
  double scale = col_scale[col];
  return post.variance / (scale * scale);
}

TCrowdModel::TCrowdModel(TCrowdOptions options)
    : options_(std::move(options)) {}

TCrowdModel::TCrowdModel(TCrowdOptions options, std::string name,
                         ColumnType only_type)
    : options_(std::move(options)),
      name_(std::move(name)),
      only_type_(only_type) {}

TCrowdModel TCrowdModel::OnlyCategorical(TCrowdOptions options) {
  return TCrowdModel(std::move(options), "TC-onlyCate",
                     ColumnType::kCategorical);
}

TCrowdModel TCrowdModel::OnlyContinuous(TCrowdOptions options) {
  return TCrowdModel(std::move(options), "TC-onlyCont",
                     ColumnType::kContinuous);
}

namespace {

/// E-step (paper Eq. 4): recomputes every active cell's posterior from the
/// current parameters by reading the row's cell-major run, one cell after
/// another. Continuous posteriors are stored in original units. Rows are
/// independent (disjoint writes), so the loop shards across the executor.
///
/// Returns the observed-data log-likelihood ln P(A | alpha, beta, phi),
/// with each cell's latent truth marginalized out: the normalizers of the
/// posteriors computed here (Dempster, Laird & Rubin 1977). Cells without
/// answers contribute nothing. Rows are summed in row order, so the value
/// does not depend on the executor's shard count.
double RunEStep(const Schema& schema, const AnswerSegment& layout,
                const ExpParams& xp, EmExecutor* exec, TCrowdState* state) {
  const double eps = state->options.epsilon;
  const double prior_var = state->options.prior_variance;
  const double log_2pi = std::log(2.0 * M_PI);
  int rows = state->num_rows;
  int cols = state->num_cols;
  std::vector<double> row_ll(static_cast<size_t>(rows), 0.0);
  const int32_t* ccol = layout.cm_col();
  const int32_t* cworker = layout.cm_worker();
  const double* cnumber = layout.cm_number();
  const int32_t* clabel = layout.cm_label();
  auto process_row = [&](size_t row) {
    int i = static_cast<int>(row);
    size_t pos = layout.row_begin(i);
    const size_t end = layout.row_begin(i + 1);
    double ll = 0.0;
    for (int j = 0; j < cols; ++j) {
      CellPosterior& post =
          state->posteriors[static_cast<size_t>(i) * cols + j];
      const ColumnSpec& col = schema.column(j);
      post.type = col.type;
      if (!state->column_active[j]) continue;
      if (col.type == ColumnType::kContinuous) {
        // Gaussian posterior: precision-weighted answers plus the prior
        // N(0, prior_var) in standardized coordinates.
        double precision = 1.0 / prior_var;
        double weighted = 0.0;
        double sum_log_s = 0.0;
        double sum_z2_over_s = 0.0;
        int n = 0;
        for (; pos < end && ccol[pos] == j; ++pos) {
          double s = xp.alpha[i] * xp.beta[j] * xp.phi[cworker[pos]];
          s = std::max(s, math::Normal::kVarianceFloor);
          double z = cnumber[pos];
          precision += 1.0 / s;
          weighted += z / s;
          sum_log_s += std::log(s);
          sum_z2_over_s += z * z / s;
          ++n;
        }
        double t_var = 1.0 / precision;
        double t_mu = weighted * t_var;
        double scale = state->col_scale[j];
        post.mean = state->Unstandardize(j, t_mu);
        post.variance = t_var * scale * scale;
        post.probs.clear();
        // Closed-form Gaussian marginal of the n answers, with precision P
        // and weighted sum W: -1/2 [n ln 2pi + sum ln s + ln(prior_var P)
        // + sum z^2/s - W^2/P], where W^2/P = W * t_mu.
        if (n > 0) {
          ll -= 0.5 * (n * log_2pi + sum_log_s +
                       std::log(prior_var * precision) + sum_z2_over_s -
                       weighted * t_mu);
        }
      } else {
        int L = col.num_labels();
        std::vector<double> log_p(L, 0.0);  // uniform prior cancels
        bool answered = false;
        for (; pos < end && ccol[pos] == j; ++pos) {
          double s = xp.alpha[i] * xp.beta[j] * xp.phi[cworker[pos]];
          double q = ClampProb(Erf(eps / std::sqrt(2.0 * s)));
          double log_q = std::log(q);
          double log_wrong = std::log((1.0 - q) / std::max(1, L - 1));
          for (int z = 0; z < L; ++z) {
            log_p[z] += (z == clabel[pos]) ? log_q : log_wrong;
          }
          answered = true;
        }
        // The marginal puts the uniform prior 1/L back in.
        double log_norm = math::SoftmaxInPlace(&log_p);
        if (answered) ll += log_norm - std::log(static_cast<double>(L));
        post.probs = std::move(log_p);
      }
    }
    row_ll[row] = ll;
  };
  exec->ParallelFor(static_cast<size_t>(rows), process_row);
  double total = 0.0;
  for (double ll : row_ll) total += ll;
  return total;
}

}  // namespace

TCrowdState TCrowdModel::Fit(const Schema& schema, const AnswerSet& answers,
                             const TCrowdState* warm_start) const {
  TCROWD_CHECK(schema.num_columns() == answers.num_cols())
      << "schema/answers column mismatch";
  TCROWD_CHECK(warm_start == nullptr ||
               (warm_start->row_difficulty.size() ==
                    static_cast<size_t>(answers.num_rows()) &&
                warm_start->col_difficulty.size() ==
                    static_cast<size_t>(answers.num_cols())))
      << "warm-start state has a different table shape";
  TCrowdState state;
  state.schema = schema;
  state.num_rows = answers.num_rows();
  state.num_cols = answers.num_cols();
  state.options = options_;
  state.column_active.resize(state.num_cols);
  for (int j = 0; j < state.num_cols; ++j) {
    state.column_active[j] =
        !only_type_.has_value() || schema.column(j).type == *only_type_;
  }
  const AnswerSegment answer_layout(schema, state.column_active, answers);
  state.col_center = answer_layout.col_center();
  state.col_scale = answer_layout.col_scale();
  state.posteriors.assign(
      static_cast<size_t>(state.num_rows) * state.num_cols, CellPosterior{});
  state.default_phi = options_.initial_phi;

  ParamLayout layout;
  layout.num_rows = state.num_rows;
  layout.num_cols = state.num_cols;
  layout.num_workers = static_cast<int>(answer_layout.worker_ids().size());
  layout.with_alpha = options_.estimate_row_difficulty;
  layout.with_beta = options_.estimate_col_difficulty;

  std::vector<double> params(layout.size(), 0.0);
  for (int w = 0; w < layout.num_workers; ++w) {
    params[layout.phi_offset() + w] = std::log(options_.initial_phi);
  }
  if (warm_start != nullptr) {
    // Start where the previous fit ended: its alpha and beta, and its phi
    // per worker id (a worker it never saw starts at its default_phi).
    const double bound = options_.log_param_bound;
    auto seed = [bound](double x) {
      return std::clamp(std::log(x), -bound, bound);
    };
    for (int i = 0; layout.with_alpha && i < layout.num_rows; ++i) {
      params[layout.alpha_offset() + i] = seed(warm_start->row_difficulty[i]);
    }
    for (int j = 0; layout.with_beta && j < layout.num_cols; ++j) {
      params[layout.beta_offset() + j] = seed(warm_start->col_difficulty[j]);
    }
    for (int w = 0; w < layout.num_workers; ++w) {
      params[layout.phi_offset() + w] =
          seed(warm_start->WorkerPhi(answer_layout.worker_ids()[w]));
    }
  }

  EmExecutor executor(options_.num_threads);

  ExpParams xp;
  xp.Refresh(layout, params);

  // Initial E-step: cold, with neutral difficulties and uniform worker
  // quality (equivalent to frequency/mean-based initialization); warm, at
  // the previous fit's parameters.
  RunEStep(schema, answer_layout, xp, &executor, &state);

  const double inv_diff_var =
      1.0 / (options_.log_difficulty_prior_stddev *
             options_.log_difficulty_prior_stddev);
  const double inv_phi_var =
      1.0 /
      (options_.log_phi_prior_stddev * options_.log_phi_prior_stddev);
  const double log_phi0 = std::log(options_.initial_phi);
  const double eps = options_.epsilon;

  const size_t num_answers = answer_layout.size();

  // Per-column constants the M-step needs per answer.
  std::vector<int> col_labels(state.num_cols, 0);
  for (int j = 0; j < state.num_cols; ++j) {
    if (schema.column(j).type == ColumnType::kCategorical) {
      col_labels[j] = schema.column(j).num_labels();
    }
  }

  // The M-step's log-parameter blocks in sweep order, each with its MAP
  // prior N(prior_center, 1 / prior_precision). No answer touches two
  // parameters of one block, so Q's Hessian within a block is diagonal and
  // per-parameter Newton steps make up the block's full Newton step (ECM,
  // Meng & Rubin 1993; one step per M-step as in Lange's EM-gradient
  // algorithm, 1995). The difficulty blocks are mean-centered after every
  // M-step, which fixes the alpha*beta*phi scale degeneracy; they step
  // within their zero-mean subspace, so centering never takes back what a
  // step gained.
  struct Block {
    int offset;
    int size;
    double prior_center;
    double prior_precision;
    bool centered;
  };
  std::vector<Block> blocks;
  if (layout.num_workers > 0) {
    blocks.push_back({layout.phi_offset(), layout.num_workers, log_phi0,
                      inv_phi_var, false});
  }
  if (layout.with_alpha && layout.num_rows > 0) {
    blocks.push_back(
        {layout.alpha_offset(), layout.num_rows, 0.0, inv_diff_var, true});
  }
  if (layout.with_beta && layout.num_cols > 0) {
    blocks.push_back(
        {layout.beta_offset(), layout.num_cols, 0.0, inv_diff_var, true});
  }
  // Subtracts the blocks' MAP log-priors at `p` (without normalizing
  // constants) from `*acc`, term by term.
  auto subtract_log_prior = [&blocks](const std::vector<double>& p,
                                      double* acc) {
    for (const Block& b : blocks) {
      for (int k = b.offset; k < b.offset + b.size; ++k) {
        double v = p[k] - b.prior_center;
        *acc -= 0.5 * b.prior_precision * v * v;
      }
    }
  };

  // One M-step pass: the expected complete-data log-likelihood Q (paper
  // Eq. 5) plus the MAP regularizers at `p`, with posteriors held fixed.
  // Fills `gh` = [g | h] (size 2P): g_k = dQ/dp_k and h_k, a non-negative
  // curvature -d^2Q/dp_k^2 (exact for continuous answers and the priors,
  // Gauss-Newton for categorical ones). Q sees an answer only through
  // ln s = ln alpha_i + ln beta_j + ln phi_w, so both are sums of
  // per-answer derivatives in ln s.
  const size_t num_params = static_cast<size_t>(layout.size());
  ExpParams mxp;  // exp tables for the pass's point
  auto q_pass = [&](const std::vector<double>& p,
                    std::vector<double>* gh) -> double {
    ++state.mstep_passes;
    gh->assign(2 * num_params, 0.0);
    mxp.Refresh(layout, p);

    // Per-answer accumulation in log order over [lo, hi) of the answer-order
    // view; sharded over the executor with one scratch buffer per shard and
    // a tree reduction.
    auto accumulate = [&](size_t lo, size_t hi, double* g_out,
                          double* val_out) {
      double* h_out = g_out + num_params;
      const int32_t* a_row = answer_layout.ans_row();
      const int32_t* a_col = answer_layout.ans_col();
      const int32_t* a_worker = answer_layout.ans_worker();
      const double* a_number = answer_layout.ans_number();
      const int32_t* a_label = answer_layout.ans_label();
      const uint8_t* a_active = answer_layout.ans_active();
      const uint8_t* a_continuous = answer_layout.ans_continuous();
      for (size_t idx = lo; idx < hi; ++idx) {
        if (!a_active[idx]) continue;
        int i = a_row[idx];
        int j = a_col[idx];
        int w = a_worker[idx];
        double s_var = mxp.alpha[i] * mxp.beta[j] * mxp.phi[w];
        s_var = std::max(s_var, math::Normal::kVarianceFloor);
        const CellPosterior& post =
            state.posteriors[static_cast<size_t>(i) * state.num_cols + j];
        double g;  // d(term)/d(ln s)
        double h;  // -d^2(term)/d(ln s)^2, or its Gauss-Newton stand-in
        if (a_continuous[idx]) {
          double z = a_number[idx];
          double t_mu = state.Standardize(j, post.mean);
          double t_var = post.variance /
                         (state.col_scale[j] * state.col_scale[j]);
          double resid = (z - t_mu) * (z - t_mu) + t_var;
          *val_out +=
              -0.5 * std::log(2.0 * M_PI * s_var) - resid / (2.0 * s_var);
          h = resid / (2.0 * s_var);
          g = -0.5 + h;
        } else {
          int L = col_labels[j];
          double x = eps / std::sqrt(2.0 * s_var);
          double q = ClampProb(Erf(x));
          double p_match = post.probs.empty()
                               ? 1.0 / L
                               : post.probs[a_label[idx]];
          *val_out += p_match * std::log(q) +
                      (1.0 - p_match) *
                          std::log((1.0 - q) / std::max(1, L - 1));
          // dq/d(ln s) = -(x / sqrt(pi)) * exp(-x^2).
          double dq_dlns = -(x / std::sqrt(M_PI)) * std::exp(-x * x);
          g = (p_match / q - (1.0 - p_match) / (1.0 - q)) * dq_dlns;
          h = (p_match / (q * q) +
               (1.0 - p_match) / ((1.0 - q) * (1.0 - q))) *
              dq_dlns * dq_dlns;
        }
        if (layout.with_alpha) {
          g_out[layout.alpha_offset() + i] += g;
          h_out[layout.alpha_offset() + i] += h;
        }
        if (layout.with_beta) {
          g_out[layout.beta_offset() + j] += g;
          h_out[layout.beta_offset() + j] += h;
        }
        g_out[layout.phi_offset() + w] += g;
        h_out[layout.phi_offset() + w] += h;
      }
    };

    double q_val = executor.AccumulateSharded(num_answers, gh->size(),
                                              accumulate, gh);
    // MAP regularizers keep rarely-observed parameters near neutral; their
    // curvature keeps every h_k > 0.
    subtract_log_prior(p, &q_val);
    for (const Block& b : blocks) {
      for (int k = b.offset; k < b.offset + b.size; ++k) {
        double v = p[k] - b.prior_center;
        (*gh)[k] -= b.prior_precision * v;
        (*gh)[num_params + k] += b.prior_precision;
      }
    }
    return q_val;
  };

  // Halvings of one block's step before the block keeps its old values.
  constexpr int kMaxHalvings = 20;
  // A relative fall in Q this small is summation round-off, not a fall.
  constexpr double kQRoundoff = 1e-12;

  std::vector<double> gh, trial_gh, old_block, step;
  std::vector<double> prev = params;
  for (int iter = 0; iter < options_.max_em_iterations; ++iter) {
    state.em_iterations = iter + 1;

    // M-step: one Newton sweep over the blocks. Every pass after a block's
    // step yields Q at the new point, plus the derivatives the next block
    // steps with; a step that lowers Q is halved until it does not, so Q
    // never falls (generalized EM).
    double q = q_pass(params, &gh);
    for (const Block& b : blocks) {
      old_block.assign(params.begin() + b.offset,
                       params.begin() + b.offset + b.size);
      // Newton step g_k / h_k; on a centered block, (g_k - lambda) / h_k,
      // whose multiplier lambda makes the steps sum to zero.
      const double* g = gh.data() + b.offset;
      const double* h = gh.data() + num_params + b.offset;
      double lambda = 0.0;
      if (b.centered) {
        double g_over_h = 0.0, inv_h = 0.0;
        for (int k = 0; k < b.size; ++k) {
          g_over_h += g[k] / h[k];
          inv_h += 1.0 / h[k];
        }
        lambda = g_over_h / inv_h;
      }
      step.resize(b.size);
      for (int k = 0; k < b.size; ++k) {
        step[k] = std::clamp((g[k] - lambda) / h[k], -1.0, 1.0);
      }
      for (int halvings = 0;; ++halvings) {
        for (int k = 0; k < b.size; ++k) {
          params[b.offset + k] = old_block[k] + step[k];
        }
        double q_new = q_pass(params, &trial_gh);
        if (q_new >= q - kQRoundoff * std::fabs(q)) {
          q = q_new;
          gh.swap(trial_gh);
          break;
        }
        if (halvings == kMaxHalvings) {
          // Q never recovered: keep the old values, where gh still holds
          // the derivatives.
          std::copy(old_block.begin(), old_block.end(),
                    params.begin() + b.offset);
          break;
        }
        ++state.mstep_backtracks;
        for (double& d : step) d *= 0.5;
      }
    }

    // Clamp and fix the alpha*beta*phi scale degeneracy: mean-center the
    // log-difficulty blocks, pushing the removed scale into phi.
    double bound = options_.log_param_bound;
    for (double& v : params) v = std::clamp(v, -bound, bound);
    for (const Block& b : blocks) {
      if (!b.centered) continue;
      double mean = 0.0;
      for (int k = b.offset; k < b.offset + b.size; ++k) mean += params[k];
      mean /= b.size;
      for (int k = b.offset; k < b.offset + b.size; ++k) params[k] -= mean;
      for (int w = 0; w < layout.num_workers; ++w) {
        params[layout.phi_offset() + w] += mean;
      }
    }
    for (double& v : params) v = std::clamp(v, -bound, bound);

    // E-step with the fresh parameters. Its log-likelihood plus the MAP
    // prior terms is the quantity EM never decreases: the convergence
    // trace of Fig. 12a.
    xp.Refresh(layout, params);
    double objective = RunEStep(schema, answer_layout, xp, &executor, &state);
    subtract_log_prior(params, &objective);
    state.objective_trace.push_back(objective);
    size_t n_trace = state.objective_trace.size();
    if (options_.objective_tolerance > 0.0 && n_trace >= 2 &&
        std::fabs(state.objective_trace[n_trace - 1] -
                  state.objective_trace[n_trace - 2]) <
            options_.objective_tolerance) {
      state.converged = true;
      break;
    }

    // Convergence on parameter movement (paper: threshold 1e-5).
    double max_delta = 0.0;
    for (size_t k = 0; k < params.size(); ++k) {
      max_delta = std::max(max_delta, std::fabs(params[k] - prev[k]));
    }
    prev = params;
    if (max_delta < options_.param_tolerance) {
      state.converged = true;
      break;
    }
  }

  // Export parameters: every exit from the loop above leaves xp holding the
  // exponentials of the final params.
  state.row_difficulty = xp.alpha;
  state.col_difficulty = xp.beta;
  for (int w = 0; w < layout.num_workers; ++w) {
    state.worker_phi[answer_layout.worker_ids()[w]] = xp.phi[w];
  }
  if (!xp.phi.empty()) state.default_phi = math::Median(xp.phi);
  return state;
}

InferenceResult TCrowdModel::StateToResult(const TCrowdState& state) {
  InferenceResult result;
  result.estimated_truth = Table(state.schema, state.num_rows);
  result.posteriors = state.posteriors;
  result.iterations = state.em_iterations;
  result.objective_trace = state.objective_trace;
  for (const auto& [worker, phi] : state.worker_phi) {
    result.worker_quality[worker] =
        Erf(state.options.epsilon / std::sqrt(2.0 * phi));
  }
  for (int i = 0; i < state.num_rows; ++i) {
    for (int j = 0; j < state.num_cols; ++j) {
      if (!state.column_active[j]) continue;
      const CellPosterior& post = state.posterior(i, j);
      if (post.type == ColumnType::kCategorical && post.probs.empty()) {
        continue;  // no answers, nothing to estimate
      }
      result.estimated_truth.Set(i, j, post.PointEstimate());
    }
  }
  return result;
}

InferenceResult TCrowdModel::Infer(const Schema& schema,
                                   const AnswerSet& answers) const {
  return StateToResult(Fit(schema, answers));
}

}  // namespace tcrowd
