#include "inference/answer_segment.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "math/statistics.h"

namespace tcrowd {

namespace {

constexpr double kMinScale = 1e-9;

/// Per-column standardization from the column's continuous answer values
/// in log order (empty for categorical columns).
void ComputeColumnStandardization(
    const Schema& schema, const std::vector<std::vector<double>>& col_values,
    std::vector<double>* col_center, std::vector<double>* col_scale) {
  int num_cols = schema.num_columns();
  col_center->assign(num_cols, 0.0);
  col_scale->assign(num_cols, 1.0);
  for (int j = 0; j < num_cols; ++j) {
    if (schema.column(j).type != ColumnType::kContinuous) continue;
    const std::vector<double>& vals = col_values[j];
    if (vals.empty()) {
      // No answers yet: fall back to the schema's nominal domain.
      const ColumnSpec& col = schema.column(j);
      (*col_center)[j] = 0.5 * (col.min_value + col.max_value);
      (*col_scale)[j] =
          std::max((col.max_value - col.min_value) / 4.0, kMinScale);
      continue;
    }
    (*col_center)[j] = math::Median(vals);
    double scale = math::RobustScale(vals);
    if (scale < kMinScale) scale = math::StdDev(vals);
    if (scale < kMinScale) scale = 1.0;
    (*col_scale)[j] = scale;
  }
}

}  // namespace

AnswerSegment::AnswerSegment(const Schema& schema,
                             const std::vector<bool>& column_active,
                             const AnswerSet& answers) {
  const int num_rows = answers.num_rows();
  const int num_cols = schema.num_columns();
  TCROWD_CHECK(answers.num_cols() == num_cols);
  TCROWD_CHECK(static_cast<int>(column_active.size()) == num_cols);
  const std::vector<Answer>& log = answers.answers();
  const size_t n = log.size();

  // The standardization epoch and the first-appearance worker registry,
  // over every answer (inactive columns included).
  std::vector<std::vector<double>> col_values(num_cols);
  std::unordered_map<WorkerId, int> worker_to_dense;
  for (const Answer& a : log) {
    if (schema.column(a.cell.col).type == ColumnType::kContinuous) {
      col_values[a.cell.col].push_back(a.value.number());
    }
    auto [it, inserted] = worker_to_dense.emplace(
        a.worker, static_cast<int>(worker_ids_.size()));
    if (inserted) worker_ids_.push_back(a.worker);
  }
  ComputeColumnStandardization(schema, col_values, &col_center_, &col_scale_);

  ans_row_.resize(n);
  ans_col_.resize(n);
  ans_worker_.resize(n);
  ans_number_.resize(n);
  ans_label_.resize(n);
  ans_active_.resize(n);
  ans_continuous_.resize(n);
  // Active answers per cell, then prefix sums: cell_next[c] becomes the
  // first cell-major slot of cell c (row-major cells).
  std::vector<size_t> cell_next(static_cast<size_t>(num_rows) * num_cols + 1,
                                0);
  for (size_t k = 0; k < n; ++k) {
    const Answer& a = log[k];
    int j = a.cell.col;
    bool continuous = schema.column(j).type == ColumnType::kContinuous;
    ans_row_[k] = a.cell.row;
    ans_col_[k] = j;
    ans_worker_[k] = worker_to_dense.at(a.worker);
    ans_active_[k] = column_active[j] ? 1 : 0;
    ans_continuous_[k] = continuous ? 1 : 0;
    if (continuous) {
      ans_number_[k] = (a.value.number() - col_center_[j]) / col_scale_[j];
      ans_label_[k] = -1;
    } else {
      ans_number_[k] = 0.0;
      ans_label_[k] = a.value.label();
    }
    if (ans_active_[k]) {
      ++cell_next[static_cast<size_t>(a.cell.row) * num_cols + j + 1];
    }
  }
  for (size_t c = 1; c < cell_next.size(); ++c) {
    cell_next[c] += cell_next[c - 1];
  }
  row_begin_.resize(static_cast<size_t>(num_rows) + 1);
  for (int i = 0; i <= num_rows; ++i) {
    row_begin_[i] = cell_next[static_cast<size_t>(i) * num_cols];
  }

  // Counting sort by cell: placing the active answers in log order keeps
  // each cell's run in log order.
  size_t m = cell_next.back();
  cm_col_.resize(m);
  cm_worker_.resize(m);
  cm_number_.resize(m);
  cm_label_.resize(m);
  for (size_t k = 0; k < n; ++k) {
    if (!ans_active_[k]) continue;
    size_t e =
        cell_next[static_cast<size_t>(ans_row_[k]) * num_cols + ans_col_[k]]++;
    cm_col_[e] = ans_col_[k];
    cm_worker_[e] = ans_worker_[k];
    cm_number_[e] = ans_number_[k];
    cm_label_[e] = ans_label_[k];
  }
}

}  // namespace tcrowd
