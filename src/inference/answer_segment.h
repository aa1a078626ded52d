#ifndef TCROWD_INFERENCE_ANSWER_SEGMENT_H_
#define TCROWD_INFERENCE_ANSWER_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/answer.h"
#include "data/schema.h"

namespace tcrowd {

/// The flat layout of the answers one T-Crowd EM fit streams (paper
/// Algorithm 1), built once per fit. It holds two views of the same
/// answers:
///
///  - **Answer-order view** (structure-of-arrays): row / col / dense worker
///    / standardized value / label per answer, in log order. The M-step
///    streams ranges of it; its reduction is defined over this order.
///  - **Cell-major view**: the answers of *active* columns in (row, col,
///    log) order, with one contiguous run per row. The E-step reads a
///    row's run; within a cell the answers keep log order.
///
/// Continuous values are stored standardized (z = (x - center) / scale per
/// column: center = median, scale = robust MAD scale with std-dev and
/// nominal-domain fallbacks, over the layout's answers). Workers get dense
/// ids in first-appearance order.
///
/// Thread-safety: immutable after construction; safe for concurrent
/// readers.
class AnswerSegment {
 public:
  /// Lays out `answers`. Answers of a column outside `column_active` keep
  /// their answer-order slots (flagged inactive) but get no cell-major
  /// entries. O(answers + cells).
  AnswerSegment(const Schema& schema, const std::vector<bool>& column_active,
                const AnswerSet& answers);

  size_t size() const { return ans_row_.size(); }
  /// Dense -> sparse worker ids, in first-appearance order.
  const std::vector<WorkerId>& worker_ids() const { return worker_ids_; }
  /// The standardization transform, one entry per column (center 0 and
  /// scale 1 for categorical columns).
  const std::vector<double>& col_center() const { return col_center_; }
  const std::vector<double>& col_scale() const { return col_scale_; }

  // ---------------------------------------------------------------------
  // Answer-order view, indexed by the answer's position in the log.
  const int32_t* ans_row() const { return ans_row_.data(); }
  const int32_t* ans_col() const { return ans_col_.data(); }
  /// Dense worker id.
  const int32_t* ans_worker() const { return ans_worker_.data(); }
  /// Standardized continuous value (0 for categorical answers).
  const double* ans_number() const { return ans_number_.data(); }
  /// Label (-1 for continuous answers).
  const int32_t* ans_label() const { return ans_label_.data(); }
  /// 1 when the answer's column participates in the model.
  const uint8_t* ans_active() const { return ans_active_.data(); }
  /// 1 when the answer's column is continuous.
  const uint8_t* ans_continuous() const { return ans_continuous_.data(); }

  // ---------------------------------------------------------------------
  // Cell-major view: active entries sorted by (row, col, log order). Row
  // `i` owns entries [row_begin(i), row_begin(i + 1)).
  size_t row_begin(int row) const { return row_begin_[row]; }
  const int32_t* cm_col() const { return cm_col_.data(); }
  const int32_t* cm_worker() const { return cm_worker_.data(); }
  const double* cm_number() const { return cm_number_.data(); }
  const int32_t* cm_label() const { return cm_label_.data(); }

 private:
  std::vector<WorkerId> worker_ids_;
  std::vector<double> col_center_, col_scale_;

  std::vector<int32_t> ans_row_, ans_col_, ans_worker_, ans_label_;
  std::vector<double> ans_number_;
  std::vector<uint8_t> ans_active_, ans_continuous_;

  std::vector<size_t> row_begin_;  ///< num_rows + 1 offsets
  std::vector<int32_t> cm_col_, cm_worker_, cm_label_;
  std::vector<double> cm_number_;
};

}  // namespace tcrowd

#endif  // TCROWD_INFERENCE_ANSWER_SEGMENT_H_
