#include "inference/segment_store.h"

#include <cstddef>
#include <utility>

#include "common/logging.h"

namespace tcrowd {

SegmentedAnswerStore::SegmentedAnswerStore(int num_rows, int num_cols)
    : num_rows_(num_rows),
      num_cols_(num_cols),
      cell_live_(static_cast<size_t>(num_rows) * num_cols) {
  TCROWD_CHECK(num_rows_ > 0);
  TCROWD_CHECK(num_cols_ > 0);
}

void SegmentedAnswerStore::IndexLive(uint64_t id) {
  const CellRef& cell = log_[id].cell;
  TCROWD_CHECK(cell.row >= 0 && cell.row < num_rows_);
  TCROWD_CHECK(cell.col >= 0 && cell.col < num_cols_);
  cell_live_[static_cast<size_t>(cell.row) * num_cols_ + cell.col].push_back(
      id);
}

void SegmentedAnswerStore::AppendBatch(const Answer* answers, size_t n) {
  log_.insert(log_.end(), answers, answers + n);
  dead_.resize(log_.size(), 0);
  for (size_t id = log_.size() - n; id < log_.size(); ++id) IndexLive(id);
  stats_.appended += n;
}

std::optional<uint64_t> SegmentedAnswerStore::RetractNewest(WorkerId worker,
                                                            CellRef cell) {
  TCROWD_CHECK(cell.row >= 0 && cell.row < num_rows_);
  TCROWD_CHECK(cell.col >= 0 && cell.col < num_cols_);
  std::vector<uint64_t>& live =
      cell_live_[static_cast<size_t>(cell.row) * num_cols_ + cell.col];
  for (size_t k = live.size(); k-- > 0;) {
    uint64_t id = live[k];
    if (log_[id].worker != worker) continue;
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    dead_[id] = 1;
    ++num_dead_;
    return id;
  }
  return std::nullopt;
}

SegmentedAnswerStore::Slice SegmentedAnswerStore::Seal() {
  Slice slice{log_.data() + sealed_, log_.size() - sealed_};
  if (slice.size > 0) {
    ++stats_.sealed_segments;
    stats_.sealed_entries += slice.size;
  }
  sealed_ = log_.size();
  return slice;
}

void SegmentedAnswerStore::Restore(std::vector<Answer> answers,
                                   const std::vector<uint64_t>& retracted_ids,
                                   size_t sealed_answers) {
  TCROWD_CHECK(log_.empty()) << "Restore needs an empty store";
  TCROWD_CHECK(sealed_answers <= answers.size());
  log_ = std::move(answers);
  dead_.assign(log_.size(), 0);
  for (uint64_t id : retracted_ids) {
    TCROWD_CHECK(id < log_.size());
    if (dead_[id] == 0) ++num_dead_;
    dead_[id] = 1;
  }
  for (size_t id = 0; id < log_.size(); ++id) {
    if (dead_[id] == 0) IndexLive(id);
  }
  sealed_ = sealed_answers;
  stats_.appended = log_.size();
}

AnswerSet SegmentedAnswerStore::MaterializeAnswerSet() const {
  AnswerSet out(num_rows_, num_cols_);
  for (size_t id = 0; id < log_.size(); ++id) {
    if (dead_[id] == 0) out.Add(log_[id]);
  }
  return out;
}

}  // namespace tcrowd
