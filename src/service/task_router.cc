#include "service/task_router.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "platform/trace.h"

namespace tcrowd::service {

TaskRouter::TaskRouter(std::unique_ptr<AssignmentPolicy> policy,
                       RouterOptions options, LatencyStats* refresh_latency)
    : policy_(std::move(policy)),
      options_(options),
      refresh_latency_(refresh_latency),
      rng_(options.seed) {
  TCROWD_CHECK(policy_ != nullptr);
  options_.refresh_every_answers = std::max(1, options_.refresh_every_answers);
}

std::vector<CellRef> TaskRouter::Route(const Schema& schema,
                                       const AnswerSet& answers,
                                       WorkerId worker, int k,
                                       const std::vector<CellRef>& unavailable) {
  std::vector<CellRef> picked;
  if (k <= 0) return picked;
  if (!refreshed_once_ && !answers.empty()) RefreshPolicy(schema, answers);
  // `exclude` accumulates the unavailable cells plus this request's own
  // picks, so the policy never hands the same cell out twice in one batch.
  std::vector<CellRef> exclude = unavailable;
  picked.reserve(k);
  for (int n = 0; n < k; ++n) {
    CellRef cell;
    if (!policy_->SelectTaskExcluding(schema, answers, worker, exclude,
                                      &cell)) {
      break;
    }
    picked.push_back(cell);
    exclude.push_back(cell);
  }
  const size_t policy_picked = picked.size();
  if (static_cast<int>(picked.size()) < k &&
      options_.backfill != BackfillStrategy::kNone) {
    Backfill(answers, worker, k, unavailable, &picked);
  }
  TCROWD_TRACE(kRouter, kDebug, "route", policy_picked,
               picked.size() - policy_picked);
  return picked;
}

void TaskRouter::RefreshPolicy(const Schema& schema,
                               const AnswerSet& answers) {
  ScopedLatencyTimer timer(refresh_latency_);
  policy_->Refresh(schema, answers);
  refreshed_once_ = true;
}

void TaskRouter::Backfill(const AnswerSet& answers, WorkerId worker, int k,
                          const std::vector<CellRef>& unavailable,
                          std::vector<CellRef>* picked) {
  // A policy may come up short even though legal candidates remain (e.g. it
  // declines cells whose gain is degenerate). Keep the worker busy anyway.
  std::vector<CellRef> exclude = unavailable;
  exclude.insert(exclude.end(), picked->begin(), picked->end());
  std::vector<CellRef> candidates = CandidateCells(answers, worker, exclude);
  if (candidates.empty()) return;
  rng_.Shuffle(&candidates);  // random tie-break among equals
  std::stable_sort(candidates.begin(), candidates.end(),
                   [&answers](const CellRef& a, const CellRef& b) {
                     return answers.CellAnswerCount(a.row, a.col) <
                            answers.CellAnswerCount(b.row, b.col);
                   });
  for (const CellRef& cell : candidates) {
    if (static_cast<int>(picked->size()) >= k) break;
    picked->push_back(cell);
    ++backfilled_;
  }
}

void TaskRouter::OnAnswer(const Schema& schema, const AnswerSet& answers,
                          const Answer& answer) {
  policy_->Observe(schema, answers, answer);
  ++answers_since_refresh_;
  if (answers_since_refresh_ >= options_.refresh_every_answers) {
    RefreshPolicy(schema, answers);
    ++refresh_count_;
    answers_since_refresh_ = 0;
  }
}

}  // namespace tcrowd::service
