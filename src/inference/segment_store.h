#ifndef TCROWD_INFERENCE_SEGMENT_STORE_H_
#define TCROWD_INFERENCE_SEGMENT_STORE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "data/answer.h"
#include "data/schema.h"
#include "inference/answer_segment.h"

namespace tcrowd {

/// The incrementally consumable answer log: a list of immutable, sealed
/// AnswerSegments plus a small mutable tail of not-yet-indexed answers.
///
/// Appends are O(1): the raw answer is buffered in the tail and the
/// per-cell count is bumped. A refresh calls SealAndSnapshot(), which
/// indexes ONLY the tail (O(K log K) for K new answers), reuses every
/// previously sealed segment by pointer, and returns a cheap
/// AnswerMatrixSnapshot — this is what makes refresh cost scale with *new*
/// answers instead of total history. The store rebuilds from scratch
/// (compaction) only when a threshold is crossed:
///
///  - **fragmentation**: more than `max_sealed_segments` sealed segments
///    (per-cell runs spread over too many slabs slow the E-step drain);
///  - **epoch drift**: the live answer count has grown past
///    `epoch_growth_factor` x the count the standardization epoch was
///    computed at (geometric schedule -> amortized O(1) per answer);
///  - **tombstones**: at least `tombstone_compact_threshold` retracted
///    answers are pending (fewer pending tombstones are scrubbed by
///    rebuilding only the affected segments).
///
/// Compaction merges everything into one segment, recomputes the
/// first-appearance worker registry and the standardization epoch from the
/// surviving answers — after it, the store's epoch is exactly what a batch
/// TCrowdModel would compute over the same answers.
///
/// Ownership/thread-safety: the store owns the tail and the segment list;
/// sealed segments are shared (shared_ptr) with outstanding snapshots, so
/// compaction never invalidates a snapshot a fit is streaming. The store
/// itself is NOT internally synchronized — the owner (the engine) guards it
/// with its own mutex; snapshots, once taken, are safe to read lock-free.
class SegmentedAnswerStore {
 public:
  struct Options {
    /// Sealed-segment count that triggers compaction (per-cell
    /// fragmentation proxy). <= 0 disables fragmentation compaction.
    int max_sealed_segments = 32;
    /// Compact (and refresh the standardization epoch) when live answers
    /// have grown by this factor since the epoch was computed. <= 1
    /// disables growth compaction (the epoch set at the first seal is kept).
    double epoch_growth_factor = 2.0;
    /// Pending tombstones at or above this trigger a full compaction;
    /// below it only the affected segments are rebuilt (scrubbed).
    int tombstone_compact_threshold = 64;
  };

  /// Aggregate substrate counters, for tests and the ingest benchmark: the
  /// "no per-refresh O(total) rebuild" regression test asserts that
  /// `sealed_entries` tracks `appended` (every answer indexed once) and
  /// `compacted_entries` stays amortized.
  struct Stats {
    uint64_t appended = 0;           ///< answers ever appended
    uint64_t sealed_segments = 0;    ///< tail seals performed
    uint64_t sealed_entries = 0;     ///< entries indexed by tail seals
    uint64_t compactions = 0;        ///< full rebuilds
    uint64_t compacted_entries = 0;  ///< entries re-indexed by compactions
    uint64_t scrubbed_segments = 0;  ///< per-segment tombstone rebuilds
    uint64_t tombstones_dropped = 0; ///< retracted answers removed
    size_t pending_tombstones = 0;   ///< retracted, not yet removed
  };

  /// `column_active` masks columns out of the model (fixed for the store's
  /// lifetime — the engine derives it from its inference method).
  SegmentedAnswerStore(const Schema& schema, int num_rows,
                       std::vector<bool> column_active, Options options);
  /// Default-Options convenience overload.
  SegmentedAnswerStore(const Schema& schema, int num_rows,
                       std::vector<bool> column_active);

  int num_rows() const { return num_rows_; }
  int num_cols() const { return num_cols_; }

  /// Answers currently held (appended minus removed; a pending tombstone
  /// still counts until the next SealAndSnapshot() applies it). Global
  /// answer ids index the chronological sequence [0, size()); removal
  /// renumbers, but only inside SealAndSnapshot(), so ids are stable
  /// between snapshots.
  size_t size() const { return sealed_total_ + tail_.size(); }

  /// Appends one answer to the tail; O(1) amortized. Returns its global id.
  size_t Append(const Answer& answer);
  /// Appends a chronological batch in one pass; O(batch).
  void AppendBatch(const Answer* answers, size_t n);

  /// Retracts the answer with the given global id. The removal is applied
  /// at the next SealAndSnapshot() (every snapshot excludes all retracted
  /// answers); per-cell counts drop immediately.
  void Tombstone(size_t global_id);

  /// Seals the tail into a new immutable segment (no-op on an empty tail),
  /// applies pending tombstones, compacts if a threshold is crossed, and
  /// returns the snapshot for a fit. O(K log K) in the tail size on the
  /// reuse path.
  AnswerMatrixSnapshot SealAndSnapshot();

  /// Live answers on one cell; O(1).
  int CellAnswerCount(int row, int col) const {
    return cell_counts_[static_cast<size_t>(row) * num_cols_ + col];
  }

  /// Full export of the LIVE answers (pending tombstones excluded) as a
  /// plain AnswerSet, in chronological order; O(total). What the engine's
  /// Finalize() fits.
  AnswerSet MaterializeAnswerSet() const;

  const Stats& stats() const { return stats_; }
  const std::vector<double>& col_center() const { return col_center_; }
  const std::vector<double>& col_scale() const { return col_scale_; }
  int num_sealed_segments() const { return static_cast<int>(sealed_.size()); }

 private:
  /// Registers (or looks up) the worker's first-appearance dense id.
  void RegisterWorker(WorkerId worker);
  /// Rebuilds everything into one segment from the given live answers,
  /// recomputing the worker registry and the standardization epoch.
  void CompactFrom(std::vector<Answer> live);
  /// Applies pending tombstones: scrubs affected sealed segments / tail
  /// entries in place (the cheap path; full compaction handles the rest).
  void ScrubTombstones();
  /// Collects all live answers in chronological order; O(total).
  std::vector<Answer> CollectLiveAnswers() const;
  /// True when the first epoch has not been computed yet.
  bool epoch_unset() const { return epoch_answers_ == 0; }

  const Schema schema_;
  const int num_rows_;
  const int num_cols_;
  const Options options_;
  const std::vector<bool> column_active_;

  /// Standardization epoch the sealed segments (and tail, at seal time)
  /// are expressed in; refreshed by compaction.
  std::vector<double> col_center_;
  std::vector<double> col_scale_;
  size_t epoch_answers_ = 0;  ///< live answers when the epoch was computed

  /// First-appearance worker registry (dense ids are append-only).
  std::vector<WorkerId> worker_ids_;
  std::unordered_map<WorkerId, int> worker_to_dense_;

  std::vector<std::shared_ptr<const AnswerSegment>> sealed_;
  size_t sealed_total_ = 0;  ///< answers across sealed segments
  std::vector<Answer> tail_;

  std::vector<int32_t> cell_counts_;     ///< live answers per cell
  std::vector<size_t> pending_tombstones_;  ///< global ids, unsorted
  Stats stats_;
};

}  // namespace tcrowd

#endif  // TCROWD_INFERENCE_SEGMENT_STORE_H_
