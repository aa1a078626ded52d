#ifndef TCROWD_SIMULATION_CROWD_SIMULATOR_H_
#define TCROWD_SIMULATION_CROWD_SIMULATOR_H_

#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "data/answer.h"
#include "data/table.h"
#include "simulation/worker_model.h"

namespace tcrowd::sim {

/// Configuration of the simulated worker pool.
struct CrowdOptions {
  int num_workers = 40;
  /// Worker variances phi_u follow LogNormal(log(phi_median), phi_log_sigma)
  /// — a long-tail quality distribution, matching the paper's remark that
  /// crowdsourced answers exhibit long-tail behaviour.
  double phi_median = 0.35;
  double phi_log_sigma = 0.7;
  /// Row-recognition model: with probability `unfamiliar_prob` (modulated
  /// per row, see `unfamiliar_row_log_sigma`), a worker does not
  /// "recognize" an entity and ALL answers in that row get their variance
  /// multiplied by `unfamiliar_boost` (the paper's Jet Li example: a worker
  /// who cannot name the celebrity is unreliable on every attribute of that
  /// row). Set unfamiliar_prob = 0 to disable correlation.
  double unfamiliar_prob = 0.3;
  double unfamiliar_boost = 8.0;
  /// Spread of the per-ROW unfamiliarity: each row's probability is
  /// unfamiliar_prob * LogNormal(0, this), capped at 0.9 — obscure entities
  /// are obscure for *everyone*, which is exactly what the model's row
  /// difficulty alpha_i captures. 0 disables per-row variation.
  double unfamiliar_row_log_sigma = 0.8;
  /// Signed-error correlation of a worker's continuous answers within one
  /// row (see AnswerDraw::bias_rho); two answers correlate by rho^2.
  double row_bias_rho = 0.5;
  /// Worker participation is skewed: arrival weights ~ U(0,1)^zipf_skew.
  /// 0 = uniform participation.
  double participation_skew = 1.5;
  /// Quality-interval epsilon used for categorical generation (must match
  /// the inference side's epsilon for calibration studies).
  double epsilon = 0.5;
};

/// Simulates a crowd of workers over a fixed ground-truth world. Produces
/// answers from the paper's generative model and provides the worker
/// arrival stream that drives task-assignment experiments.
class CrowdSimulator {
 public:
  /// `row_difficulty`/`col_difficulty` are the hidden alpha/beta of the
  /// world (pass vectors of 1.0 for a difficulty-free world). `col_scale`
  /// maps standardized noise into each continuous column's units; a common
  /// choice is (max-min)/6 so +-3 sigma of a phi=1 worker spans the domain.
  CrowdSimulator(const CrowdOptions& options, const Schema& schema,
                 const Table& truth, std::vector<double> row_difficulty,
                 std::vector<double> col_difficulty,
                 std::vector<double> col_scale, Rng rng);

  /// Convenience: neutral difficulties and domain-derived column scales.
  CrowdSimulator(const CrowdOptions& options, const Schema& schema,
                 const Table& truth, Rng rng);

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const WorkerProfile& worker(WorkerId id) const;
  /// Ground-truth quality q_u of a worker (for calibration studies).
  double TrueQuality(WorkerId id) const;

  /// Next arriving worker, drawn from the skewed participation weights.
  WorkerId NextWorker();

  /// Generates (and returns) worker `u`'s answer for `cell`.
  Value Answer(WorkerId u, CellRef cell);

  /// Order-independent variant of Answer(): identical generative model, but
  /// every per-(worker,row) latent (recognition factor, shared bias, row
  /// unfamiliarity) is derived from a stable hash of (simulator seed,
  /// worker, row) instead of being drawn lazily from the shared stream, and
  /// the fresh noise comes from the caller's `rng`. Two calls with the same
  /// arguments and rng state produce the same answer no matter what ran in
  /// between — the property LoadGenerator and the scenario runner are
  /// built on. `noise_boost` multiplies the worker's variance phi (> 1
  /// degrades quality; used by drifting/sleeper behaviors). Const and
  /// stateless: safe from concurrent threads.
  Value AnswerWith(WorkerId u, CellRef cell, Rng* rng,
                   double noise_boost = 1.0) const;

  /// Order-independent arrival draw from the caller's stream (same skewed
  /// participation weights as NextWorker()).
  WorkerId NextWorker(Rng* rng) const;

  const Schema& schema() const { return *schema_; }
  const Table& truth() const { return *truth_; }

  /// Seeds `answers` with `k` answers per cell, HIT-style: for every row,
  /// `k` distinct workers each answer the whole row.
  void SeedAnswers(int k, AnswerSet* answers);

  const std::vector<double>& row_difficulty() const { return row_difficulty_; }
  const std::vector<double>& col_difficulty() const { return col_difficulty_; }
  const std::vector<double>& col_scale() const { return col_scale_; }
  double epsilon() const { return options_.epsilon; }

  /// Derives the default per-column scale from a schema: (max-min)/6 for
  /// continuous columns, 1 for categorical.
  static std::vector<double> DefaultColumnScales(const Schema& schema);

 private:
  double RowFactor(WorkerId u, int row);

  CrowdOptions options_;
  const Schema* schema_;
  const Table* truth_;
  std::vector<double> row_difficulty_;
  std::vector<double> col_difficulty_;
  std::vector<double> col_scale_;
  Rng rng_;
  std::vector<WorkerProfile> workers_;
  std::vector<double> arrival_weights_;
  /// Memoized per-(worker,row) recognition factors so the same pair always
  /// behaves consistently — this is what correlates errors within a row.
  std::unordered_map<int64_t, double> row_factors_;
  /// Memoized per-row unfamiliarity probabilities.
  std::unordered_map<int, double> row_unfamiliar_prob_;
  /// Memoized per-(worker,row) shared bias draws for continuous answers.
  std::unordered_map<int64_t, double> row_bias_;

  double RowUnfamiliarProb(int row);
  double RowBias(WorkerId u, int row);

  /// Stable seed for the order-independent latents of AnswerWith(): mixes
  /// the simulator salt with (tag, worker, row).
  uint64_t PairSeed(uint64_t tag, WorkerId u, int row) const;
  double RowFactorAt(WorkerId u, int row) const;
  double RowUnfamiliarProbAt(int row) const;
  double RowBiasAt(WorkerId u, int row) const;

  /// Per-simulator salt for AnswerWith(), peeked from rng_ at construction
  /// without consuming from it (the lazy Answer() stream stays untouched).
  uint64_t pair_seed_ = 0;
};

}  // namespace tcrowd::sim

#endif  // TCROWD_SIMULATION_CROWD_SIMULATOR_H_
