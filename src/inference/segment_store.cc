#include "inference/segment_store.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace tcrowd {

SegmentedAnswerStore::SegmentedAnswerStore(const Schema& schema, int num_rows,
                                           std::vector<bool> column_active,
                                           Options options)
    : schema_(schema),
      num_rows_(num_rows),
      num_cols_(schema.num_columns()),
      options_(options),
      column_active_(std::move(column_active)),
      cell_counts_(static_cast<size_t>(num_rows) * schema.num_columns(), 0) {
  TCROWD_CHECK(num_rows_ > 0);
  TCROWD_CHECK(num_cols_ > 0);
  TCROWD_CHECK(static_cast<int>(column_active_.size()) == num_cols_);
  // Nominal-domain epoch until the first seal computes one from data.
  ComputeColumnStandardization(
      schema_, std::vector<std::vector<double>>(num_cols_), &col_center_,
      &col_scale_);
}

SegmentedAnswerStore::SegmentedAnswerStore(const Schema& schema, int num_rows,
                                           std::vector<bool> column_active)
    : SegmentedAnswerStore(schema, num_rows, std::move(column_active),
                           Options()) {}

void SegmentedAnswerStore::RegisterWorker(WorkerId worker) {
  auto [it, inserted] =
      worker_to_dense_.emplace(worker, static_cast<int>(worker_ids_.size()));
  if (inserted) worker_ids_.push_back(worker);
}

size_t SegmentedAnswerStore::Append(const Answer& answer) {
  TCROWD_CHECK(answer.cell.row >= 0 && answer.cell.row < num_rows_);
  TCROWD_CHECK(answer.cell.col >= 0 && answer.cell.col < num_cols_);
  RegisterWorker(answer.worker);
  ++cell_counts_[static_cast<size_t>(answer.cell.row) * num_cols_ +
                 answer.cell.col];
  tail_.push_back(answer);
  ++stats_.appended;
  return size() - 1;
}

void SegmentedAnswerStore::AppendBatch(const Answer* answers, size_t n) {
  tail_.reserve(tail_.size() + n);
  for (size_t k = 0; k < n; ++k) Append(answers[k]);
}

void SegmentedAnswerStore::Tombstone(size_t global_id) {
  TCROWD_CHECK(global_id < size());
  for (size_t id : pending_tombstones_) {
    if (id == global_id) return;  // already retracted
  }
  pending_tombstones_.push_back(global_id);
  stats_.pending_tombstones = pending_tombstones_.size();
  // Per-cell counts drop immediately; the entry leaves the segments at the
  // next SealAndSnapshot().
  Answer dead;
  if (global_id >= sealed_total_) {
    dead = tail_[global_id - sealed_total_];
  } else {
    size_t offset = 0;
    for (const auto& seg : sealed_) {
      if (global_id < offset + seg->size()) {
        dead = seg->ReconstructAnswer(global_id - offset);
        break;
      }
      offset += seg->size();
    }
  }
  --cell_counts_[static_cast<size_t>(dead.cell.row) * num_cols_ +
                 dead.cell.col];
}

std::vector<Answer> SegmentedAnswerStore::CollectLiveAnswers() const {
  std::vector<size_t> dead(pending_tombstones_);
  std::sort(dead.begin(), dead.end());
  std::vector<Answer> live;
  live.reserve(size() - dead.size());
  size_t global = 0;
  auto alive = [&](size_t id) {
    return !std::binary_search(dead.begin(), dead.end(), id);
  };
  for (const auto& seg : sealed_) {
    for (size_t k = 0; k < seg->size(); ++k, ++global) {
      if (alive(global)) live.push_back(seg->ReconstructAnswer(k));
    }
  }
  for (const Answer& a : tail_) {
    if (alive(global)) live.push_back(a);
    ++global;
  }
  return live;
}

void SegmentedAnswerStore::CompactFrom(std::vector<Answer> live) {
  // Fresh first-appearance registry and standardization epoch over the
  // surviving answers, via the same helpers the batch TCrowdModel::Fit
  // uses: after this the store is indistinguishable from one the batch
  // model would build from the same AnswerSet.
  worker_ids_.clear();
  worker_to_dense_.clear();
  BuildWorkerRegistry(live.data(), live.size(), &worker_ids_,
                      &worker_to_dense_);
  ComputeColumnStandardization(
      schema_, CollectColumnValues(schema_, live.data(), live.size()),
      &col_center_, &col_scale_);

  sealed_.clear();
  sealed_total_ = 0;
  tail_.clear();
  if (!live.empty()) {
    sealed_.push_back(AnswerSegment::Build(schema_, column_active_,
                                           col_center_, col_scale_,
                                           live.data(), live.size(),
                                           worker_to_dense_));
    sealed_total_ = live.size();
  }
  epoch_answers_ = live.size();

  ++stats_.compactions;
  stats_.compacted_entries += live.size();
  stats_.tombstones_dropped += pending_tombstones_.size();
  pending_tombstones_.clear();
  stats_.pending_tombstones = 0;
}

void SegmentedAnswerStore::ScrubTombstones() {
  std::vector<size_t> dead(pending_tombstones_);
  std::sort(dead.begin(), dead.end());
  size_t di = 0;

  // Rebuild only the sealed segments that actually hold a retracted answer;
  // untouched segments keep their index structures (and their shared_ptr
  // identity, so outstanding snapshots are unaffected).
  size_t offset = 0;
  for (auto& seg : sealed_) {
    size_t seg_end = offset + seg->size();
    size_t first = di;
    while (di < dead.size() && dead[di] < seg_end) ++di;
    if (di > first) {
      std::vector<Answer> survivors;
      survivors.reserve(seg->size() - (di - first));
      for (size_t k = 0; k < seg->size(); ++k) {
        bool is_dead = std::binary_search(dead.begin() + first,
                                          dead.begin() + di, offset + k);
        if (!is_dead) survivors.push_back(seg->ReconstructAnswer(k));
      }
      sealed_total_ -= seg->size() - survivors.size();
      seg = AnswerSegment::Build(schema_, column_active_, col_center_,
                                 col_scale_, survivors.data(),
                                 survivors.size(), worker_to_dense_);
      ++stats_.scrubbed_segments;
    }
    offset = seg_end;
  }

  // Tail tombstones: drop the raw buffered answers.
  if (di < dead.size()) {
    std::vector<Answer> kept;
    kept.reserve(tail_.size());
    for (size_t k = 0; k < tail_.size(); ++k) {
      if (!std::binary_search(dead.begin() + di, dead.end(),
                              offset + k)) {
        kept.push_back(tail_[k]);
      }
    }
    tail_ = std::move(kept);
  }

  stats_.tombstones_dropped += dead.size();
  pending_tombstones_.clear();
  stats_.pending_tombstones = 0;
}

AnswerMatrixSnapshot SegmentedAnswerStore::SealAndSnapshot() {
  int pending = static_cast<int>(pending_tombstones_.size());
  int segments_if_sealed =
      static_cast<int>(sealed_.size()) + (tail_.empty() ? 0 : 1);
  bool compact =
      (pending > 0 && pending >= options_.tombstone_compact_threshold) ||
      (options_.max_sealed_segments > 0 && !epoch_unset() &&
       segments_if_sealed > options_.max_sealed_segments) ||
      (options_.epoch_growth_factor > 1.0 && !epoch_unset() &&
       static_cast<double>(size()) >=
           options_.epoch_growth_factor * static_cast<double>(epoch_answers_));

  if (compact) {
    CompactFrom(CollectLiveAnswers());
  } else {
    if (pending > 0) ScrubTombstones();
    if (!tail_.empty()) {
      if (epoch_unset()) {
        // First seal: compute the epoch from what we have. Nothing is
        // re-indexed (no sealed segments can exist yet), so this is not a
        // compaction.
        ComputeColumnStandardization(
            schema_,
            CollectColumnValues(schema_, tail_.data(), tail_.size()),
            &col_center_, &col_scale_);
        epoch_answers_ = tail_.size();
      }
      sealed_.push_back(AnswerSegment::Build(schema_, column_active_,
                                             col_center_, col_scale_,
                                             tail_.data(), tail_.size(),
                                             worker_to_dense_));
      sealed_total_ += tail_.size();
      ++stats_.sealed_segments;
      stats_.sealed_entries += tail_.size();
      tail_.clear();
    }
  }

  AnswerMatrixSnapshot snap;
  snap.num_rows = num_rows_;
  snap.num_cols = num_cols_;
  snap.segments = sealed_;
  snap.offsets.reserve(sealed_.size() + 1);
  snap.offsets.push_back(0);
  for (const auto& seg : sealed_) {
    snap.offsets.push_back(snap.offsets.back() + seg->size());
  }
  snap.worker_ids = worker_ids_;
  snap.column_active = column_active_;
  snap.col_center = col_center_;
  snap.col_scale = col_scale_;
  return snap;
}

AnswerSet SegmentedAnswerStore::MaterializeAnswerSet() const {
  AnswerSet out(num_rows_, num_cols_);
  // Live answers only: a retracted answer must not reappear in exports just
  // because the seal that physically removes it has not run yet.
  for (const Answer& a : CollectLiveAnswers()) out.Add(a);
  return out;
}

}  // namespace tcrowd
