#ifndef TCROWD_INFERENCE_EM_EXECUTOR_H_
#define TCROWD_INFERENCE_EM_EXECUTOR_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"

namespace tcrowd {

/// Sharded execution substrate for the T-Crowd EM.
///
/// Every TCrowdModel::Fit runs on one, sized to options().num_threads (the
/// engine's Finalize, the assignment policies' refits, the batch
/// experiments). An EmExecutor:
///
///  - owns one common::ThreadPool, reused across the fit's iterations;
///  - partitions the item space (tuples for the E-step, answers for the
///    M-step) into `num_shards` contiguous shards once per call shape;
///  - keeps per-shard accumulator scratch alive across calls, so the
///    gradient buffers are allocated once per fit, not once per objective
///    evaluation;
///  - merges shard results with a pairwise reduction tree instead of a
///    serial merge.
///
/// Determinism: every partition and the reduction tree are pure functions
/// of (item count, shard count), so results are bit-reproducible for a
/// fixed shard count. With one shard all work runs on the caller's thread
/// in plain item order — bit-identical to the historical serial EM. Across
/// different shard counts results agree only to floating-point reduction
/// order (same contract TCrowdOptions::num_threads always had).
///
/// Ownership: the executor owns its thread pool (created lazily — a
/// 1-shard executor never spawns threads). It holds no reference to any
/// model or answer data between calls.
///
/// Thread-safety: an EmExecutor serializes nothing internally; it is
/// driven by the ONE fit that owns it.
class EmExecutor {
 public:
  /// Answer counts below this run the sharded accumulation serially even
  /// when the executor has threads: slicing a tiny problem costs more in
  /// synchronization than it wins (value inherited from the historical
  /// in-model threshold, so threaded fits stay bit-compatible with it).
  static constexpr size_t kMinItemsForSharding = 2048;

  /// `num_shards` <= 1 yields a serial executor with no threads. Blocks
  /// until the pool's workers have started (ThreadPool semantics).
  explicit EmExecutor(int num_shards);
  /// Joins the pool. Must not run concurrently with ParallelFor /
  /// AccumulateSharded.
  ~EmExecutor();

  EmExecutor(const EmExecutor&) = delete;
  EmExecutor& operator=(const EmExecutor&) = delete;

  int num_shards() const { return num_shards_; }

  /// Runs fn(i) for every i in [0, n), block-partitioned across the pool
  /// (shard count capped at n, so shards never outnumber items). Serial on
  /// the caller's thread for a 1-shard executor. Blocks until every index
  /// ran; rethrows the first exception a shard threw.
  ///
  /// Intended for the E-step: iterations must write to disjoint state (per
  /// row), in which case the result is independent of the partition.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Sharded accumulation with a deterministic pairwise reduction tree.
  ///
  /// `body(lo, hi, grad, value)` must accumulate (+=) the contribution of
  /// items [lo, hi) into grad[0..grad_size) and *value. The item space is
  /// split into contiguous shards; each shard accumulates into its own
  /// persistent scratch buffer; buffers are then merged pairwise
  /// (scratch[s] += scratch[s + stride], doubling stride) and the root is
  /// added into `*grad` / returned.
  ///
  /// Runs serially (body called once on [0, n) accumulating directly into
  /// `*grad`) when the executor has one shard OR n < kMinItemsForSharding.
  /// `*grad` must be pre-sized to grad_size (its existing contents are kept
  /// and added to). Blocks; rethrows the first shard exception.
  double AccumulateSharded(
      size_t n, size_t grad_size,
      const std::function<void(size_t lo, size_t hi, double* grad,
                               double* value)>& body,
      std::vector<double>* grad);

 private:
  const int num_shards_;
  std::unique_ptr<ThreadPool> pool_;  // null for a serial executor

  /// Per-shard gradient scratch, alive across calls ("keep the accumulator
  /// scratch across iterations"): resized only when grad_size grows.
  std::vector<std::vector<double>> scratch_;
  std::vector<double> scratch_value_;
};

}  // namespace tcrowd

#endif  // TCROWD_INFERENCE_EM_EXECUTOR_H_
