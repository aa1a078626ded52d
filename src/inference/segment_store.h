#ifndef TCROWD_INFERENCE_SEGMENT_STORE_H_
#define TCROWD_INFERENCE_SEGMENT_STORE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "data/answer.h"

namespace tcrowd {

/// The service's answer log, in log-id order: an answer's log id is its
/// position in the log and is never renumbered. A retraction marks its
/// answer dead in place, so log ids stay what the durable journal and
/// segment files call them (docs/DATA_LIFECYCLE.md).
///
/// Appends are O(1) amortized and index nothing but the per-cell live ids
/// a retraction resolves through. A seal only moves the sealed boundary
/// and hands back the slice appended since the previous seal — the piece
/// the engine persists as the next durable segment. The fit reads the live
/// log through MaterializeAnswerSet() and builds its own layout.
///
/// Ownership/thread-safety: NOT internally synchronized; the owner (the
/// engine) guards it with its own mutex.
class SegmentedAnswerStore {
 public:
  /// Substrate counters, for tests and benchmarks.
  struct Stats {
    uint64_t appended = 0;         ///< answers ever appended
    uint64_t sealed_segments = 0;  ///< seals of a non-empty slice
    uint64_t sealed_entries = 0;   ///< answers those seals covered
    /// Always 0: the plain log never re-indexes what it holds. Kept for
    /// readers that still report them.
    uint64_t compactions = 0;
    uint64_t compacted_entries = 0;
  };

  /// A contiguous run of the log.
  struct Slice {
    const Answer* answers = nullptr;
    size_t size = 0;
  };

  SegmentedAnswerStore(int num_rows, int num_cols);

  /// Live answers (appended minus retracted).
  size_t size() const { return log_.size() - num_dead_; }
  /// Answers ever appended, retracted ones included; the next log id.
  size_t log_size() const { return log_.size(); }

  /// Appends a chronological batch; its answers take the next log ids.
  void AppendBatch(const Answer* answers, size_t n);

  /// Marks the newest live answer `worker` gave on `cell` dead and returns
  /// its log id; std::nullopt when the worker has no live answer there.
  std::optional<uint64_t> RetractNewest(WorkerId worker, CellRef cell);

  /// Returns the slice appended since the previous seal (retracted answers
  /// included — on disk they stay in place) and moves the sealed boundary
  /// to the end of the log. The slice stays valid until the next append.
  Slice Seal();

  /// Loads a recovered durable log into an empty store: `answers` in
  /// log-id order, the log ids in `retracted_ids` (each below
  /// answers.size()) dead, and the first `sealed_answers` sealed.
  void Restore(std::vector<Answer> answers,
               const std::vector<uint64_t>& retracted_ids,
               size_t sealed_answers);

  /// The live answers as a plain AnswerSet, in log order; O(total).
  AnswerSet MaterializeAnswerSet() const;

  const Stats& stats() const { return stats_; }

 private:
  /// Adds log id `id` to its cell's live ids.
  void IndexLive(uint64_t id);

  const int num_rows_;
  const int num_cols_;
  std::vector<Answer> log_;
  std::vector<uint8_t> dead_;  ///< one flag per log id
  size_t num_dead_ = 0;
  /// Live log ids per cell (row-major), oldest first.
  std::vector<std::vector<uint64_t>> cell_live_;
  size_t sealed_ = 0;  ///< log ids below this have been sealed
  Stats stats_;
};

}  // namespace tcrowd

#endif  // TCROWD_INFERENCE_SEGMENT_STORE_H_
