#include "service/incremental_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "inference/catd.h"
#include "inference/crh.h"
#include "inference/dawid_skene.h"
#include "inference/glad.h"
#include "inference/gtm.h"
#include "inference/majority_voting.h"
#include "inference/median_inference.h"
#include "inference/zencrowd.h"
#include "platform/event_log.h"
#include "platform/trace.h"

namespace tcrowd::service {

namespace {

InferenceArgs Normalize(InferenceArgs args) {
  args.staleness_threshold = std::max(1, args.staleness_threshold);
  args.num_shards = std::max(1, args.num_shards);
  args.min_answers_for_fit = std::max(1, args.min_answers_for_fit);
  args.ingest_batch_size = std::max(1, args.ingest_batch_size);
  // num_threads records the effective shard count of the Finalize fit, so
  // a batch TCrowdModel run with these options reproduces it bit-for-bit.
  args.tcrowd_options.num_threads =
      std::max(args.tcrowd_options.num_threads, args.num_shards);
  return args;
}

}  // namespace

IncrementalInferenceEngine::IncrementalInferenceEngine(const Schema& schema,
                                                       int num_rows,
                                                       InferenceArgs args,
                                                       ThreadPool* pool)
    : schema_(schema),
      num_rows_(num_rows),
      args_(Normalize(std::move(args))),
      pool_(pool),
      method_(BatchMethod(schema, args_)),
      store_(schema, num_rows, std::vector<bool>(schema.num_columns(), true),
             args_.store) {
  TCROWD_CHECK(method_ != nullptr)
      << "unknown inference method " << args_.method;
  TCROWD_CHECK(num_rows_ > 0);
  TCROWD_CHECK(schema_.num_columns() > 0);
  cell_live_.resize(static_cast<size_t>(num_rows_) * schema_.num_columns());
  if (args_.checkpoint.enabled()) RestoreFromCheckpoint();
}

void IncrementalInferenceEngine::DisableCheckpointing(const Status& error,
                                                      const char* during) {
  TCROWD_LOG(Warning) << "checkpointing disabled (" << during
                      << "): " << error.ToString()
                      << " — serving continues from memory only";
  if (checkpoint_status_.ok()) checkpoint_status_ = error;
  snapshot_.reset();
  unsealed_log_.clear();
  unsealed_log_.shrink_to_fit();
}

void IncrementalInferenceEngine::RestoreFromCheckpoint() {
  // Constructor-only: no other thread can touch the engine yet, so no lock.
  snapshot_ = std::make_unique<SnapshotStore>(args_.checkpoint);
  SnapshotStore::RecoveredLog log;
  Status st = snapshot_->Open(schema_, num_rows_, &log);
  if (!st.ok()) {
    // Never write into a directory we could not make sense of: restoring
    // nothing AND persisting over the old state would destroy the evidence.
    DisableCheckpointing(st, "restore");
    return;
  }
  if (log.journal_truncated) {
    TCROWD_LOG(Warning) << "snapshot journal had a torn tail; recovered the "
                        << "clean prefix (" << log.answers.size()
                        << " answers)";
  }
  // Semantic validation, mirroring what AcceptAnswerLocked enforced before
  // any of these answers were ever journaled: a checkpoint can be
  // CRC-clean yet hold out-of-range cells or labels (hand-edited file,
  // buggy writer). Such data must refuse with a clean Status, not abort a
  // store CHECK or index a baseline method out of bounds later.
  for (size_t k = 0; k < log.answers.size(); ++k) {
    const Answer& a = log.answers[k];
    bool cell_ok = a.cell.row >= 0 && a.cell.row < num_rows_ &&
                   a.cell.col >= 0 && a.cell.col < schema_.num_columns();
    bool value_ok = false;
    if (cell_ok) {
      const ColumnSpec& col = schema_.column(a.cell.col);
      value_ok =
          a.value.valid() &&
          ((col.type == ColumnType::kCategorical &&
            a.value.is_categorical() && a.value.label() >= 0 &&
            a.value.label() < static_cast<int>(col.labels.size())) ||
           (col.type == ColumnType::kContinuous && a.value.is_continuous()));
    }
    if (!cell_ok || !value_ok) {
      DisableCheckpointing(
          Status::FailedPrecondition(StrFormat(
              "checkpoint %s: answer %zu does not fit the serving schema "
              "(cell %d,%d %s)",
              args_.checkpoint.directory.c_str(), k, a.cell.row, a.cell.col,
              a.value.ToString().c_str())),
          "restore validation");
      return;
    }
  }
  // Replay the durable log into the in-memory store, re-sealing at each
  // durable segment boundary (compaction thresholds may merge them — that
  // only changes in-memory layout, never the chronological log). Journal
  // answers stay in the tail, exactly as they were before the crash.
  // Durably retracted answers are filtered out while replaying: the store
  // holds live answers only, and Finalize() then materializes the exact
  // chronological live sequence the uninterrupted run would — which is
  // what keeps restore-then-Finalize bit-identical even when the crash
  // fell between a retraction and the seal that folds it.
  const std::vector<uint64_t>& dead = log.retracted_ids;  // sorted, deduped
  auto is_dead = [&dead](size_t id) {
    return std::binary_search(dead.begin(), dead.end(),
                              static_cast<uint64_t>(id));
  };
  size_t offset = 0;
  std::vector<Answer> live_buf;
  for (size_t sz : log.segment_sizes) {
    live_buf.clear();
    for (size_t k = offset; k < offset + sz; ++k) {
      if (!is_dead(k)) live_buf.push_back(log.answers[k]);
    }
    store_.AppendBatch(live_buf.data(), live_buf.size());
    store_.SealAndSnapshot();
    offset += sz;
  }
  for (size_t k = offset; k < log.answers.size(); ++k) {
    if (!is_dead(k)) store_.Append(log.answers[k]);
  }
  for (size_t k = 0; k < log.answers.size(); ++k) {
    if (is_dead(k)) continue;
    const Answer& a = log.answers[k];
    cell_live_[static_cast<size_t>(a.cell.row) * schema_.num_columns() +
               a.cell.col]
        .push_back(CellLogEntry{k, a.worker});
  }
  // Log-space bookkeeping: log ids keep counting from the durable total;
  // the unfiltered journal tail is what the next persist seals.
  log_size_ = log.answers.size();
  applied_dead_.assign(dead.begin(), dead.end());
  unsealed_log_.assign(log.answers.begin() + log.sealed_answers,
                       log.answers.end());
  restored_ = log.answers.size() - dead.size();
  restored_retractions_ = dead.size();
}

IncrementalInferenceEngine::~IncrementalInferenceEngine() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  refresh_done_.wait(lock, [this] { return !refresh_in_flight_; });
}

std::unique_ptr<TruthInference> IncrementalInferenceEngine::BatchMethod(
    const Schema& schema, const InferenceArgs& args) {
  TCrowdOptions options = args.tcrowd_options;
  options.num_threads =
      std::max(options.num_threads, std::max(1, args.num_shards));
  const std::string& m = args.method;
  if (m == "tcrowd") return std::make_unique<TCrowdModel>(options);
  if (m == "tc-onlycate") {
    return std::make_unique<TCrowdModel>(
        TCrowdModel::OnlyCategorical(schema, options));
  }
  if (m == "tc-onlycont") {
    return std::make_unique<TCrowdModel>(
        TCrowdModel::OnlyContinuous(schema, options));
  }
  if (m == "mv") return std::make_unique<MajorityVoting>();
  if (m == "median") return std::make_unique<MedianInference>();
  if (m == "ds") return std::make_unique<DawidSkene>();
  if (m == "zencrowd") return std::make_unique<ZenCrowd>();
  if (m == "glad") return std::make_unique<Glad>();
  if (m == "gtm") return std::make_unique<Gtm>();
  if (m == "crh") return std::make_unique<Crh>();
  if (m == "catd") return std::make_unique<Catd>();
  return nullptr;
}

void IncrementalInferenceEngine::DrainIngestLocked() {
  std::vector<Answer> batch;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    batch.swap(ingest_);
  }
  if (batch.empty()) return;
  // One pass: append to the store's tail segment under a single
  // acquisition of the engine mutex. Journal records are tagged with LOG
  // ids, not store ids: retractions may have renumbered the store, but the
  // durable log is append-only.
  size_t base = log_size_;
  for (const Answer& answer : batch) {
    store_.Append(answer);
    cell_live_[static_cast<size_t>(answer.cell.row) * schema_.num_columns() +
               answer.cell.col]
        .push_back(CellLogEntry{log_size_, answer.worker});
    ++log_size_;
  }
  answers_since_refresh_.fetch_add(static_cast<int>(batch.size()),
                                   std::memory_order_relaxed);
  if (snapshot_ != nullptr) {
    unsealed_log_.insert(unsealed_log_.end(), batch.begin(), batch.end());
    // Durability boundary: once the journal append returns, everything
    // absorbed so far survives a crash. One framed record per drained
    // batch — the same amortization the ingest queue buys the lock.
    Status st = snapshot_->JournalAppend(base, batch.data(), batch.size());
    if (!st.ok()) DisableCheckpointing(st, "journal append");
  }
}

bool IncrementalInferenceEngine::StaleLocked() const {
  return answers_since_refresh() >= args_.staleness_threshold ||
         (refresh_count() == 0 &&
          static_cast<int>(store_.size()) >= args_.min_answers_for_fit);
}

void IncrementalInferenceEngine::ScheduleRefreshLocked() {
  if (shutdown_ ||
      static_cast<int>(store_.size()) < args_.min_answers_for_fit) {
    return;
  }
  if (refresh_in_flight_) {
    // Coalesce: the queued refresh will run exactly once more.
    refresh_pending_ = true;
    return;
  }
  answers_since_refresh_.store(0, std::memory_order_relaxed);
  if (pool_ != nullptr && args_.async_refresh) {
    refresh_in_flight_ = true;
    if (pool_->Submit([this] { RunRefresh(); })) return;
    refresh_in_flight_ = false;
  }
  SealLocked();
  refresh_count_.fetch_add(1, std::memory_order_relaxed);
}

void IncrementalInferenceEngine::DrainAndMaybeRefresh() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  if (StaleLocked() && !refresh_in_flight_) ScheduleRefreshLocked();
}

void IncrementalInferenceEngine::SubmitAnswer(const Answer& answer) {
  SubmitAnswerBatch(&answer, 1);
}

void IncrementalInferenceEngine::SubmitAnswerBatch(const Answer* answers,
                                                   size_t n) {
  if (n == 0) return;
  size_t queued;
  {
    std::lock_guard<std::mutex> lock(ingest_mu_);
    ingest_.reserve(ingest_.size() + n);
    for (size_t k = 0; k < n; ++k) {
      const Answer& a = answers[k];
      TCROWD_CHECK(a.cell.row >= 0 && a.cell.row < num_rows_);
      TCROWD_CHECK(a.cell.col >= 0 && a.cell.col < schema_.num_columns());
      ingest_.push_back(a);
    }
    queued = ingest_.size();
  }
  size_t total =
      total_queued_.fetch_add(n, std::memory_order_relaxed) + n;
  // Lock-free hints only: the authoritative staleness decision is re-made
  // under the engine mutex inside the drain. Draining at least as often as
  // the historical per-answer path would have scheduled keeps the refresh
  // cadence identical.
  bool drain =
      queued >= static_cast<size_t>(args_.ingest_batch_size) ||
      answers_since_refresh() + static_cast<int>(queued) >=
          args_.staleness_threshold ||
      (refresh_count() == 0 &&
       total >= static_cast<size_t>(args_.min_answers_for_fit));
  if (drain) DrainAndMaybeRefresh();
}

void IncrementalInferenceEngine::RequestRefresh() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  ScheduleRefreshLocked();
}

void IncrementalInferenceEngine::SealLocked() {
  DrainIngestLocked();
  // Seal the tail (O(new answers)); every previously sealed segment is
  // reused as is.
  size_t sealed = store_.SealAndSnapshot().num_answers();
  AbsorbAppliedTombstonesLocked();
  // Checkpoint-on-seal: the newly sealed slice goes to disk exactly once,
  // while it is still O(answers since the last refresh).
  PersistSealedLocked();
  TCROWD_TRACE(kSeal, kInfo, "refresh seal", sealed,
               static_cast<uint64_t>(refresh_count()));
  if (args_.recorder != nullptr) args_.recorder->RecordSeal(sealed);
}

void IncrementalInferenceEngine::RunRefresh() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!shutdown_) {
    SealLocked();
    refresh_count_.fetch_add(1, std::memory_order_relaxed);
    if (!refresh_pending_) break;
    // Coalesced requests: exactly one more pass over the new tail;
    // refresh_in_flight_ stays set so waiters keep waiting.
    refresh_pending_ = false;
    answers_since_refresh_.store(0, std::memory_order_relaxed);
  }
  refresh_in_flight_ = false;
  // Notify under the lock: a waiter (incl. the destructor) may otherwise
  // finish and destroy the condition variable before the notify lands.
  refresh_done_.notify_all();
}

void IncrementalInferenceEngine::PersistSealedLocked() {
  if (snapshot_ == nullptr) return;
  if (unsealed_log_.empty()) return;
  // The durable log is append-only in log-id space: the newly sealed slice
  // is the unfiltered answers drained since the last persist, NOT a copy
  // from the store — a seal may have scrubbed retracted answers out of the
  // in-memory numbering, but on disk they stay in place and the retraction
  // records (folded into the manifest by this persist) mark them dead.
  Status st =
      snapshot_->PersistSealed(unsealed_log_.data(), unsealed_log_.size());
  if (!st.ok()) {
    DisableCheckpointing(st, "segment persist");
    return;
  }
  unsealed_log_.clear();
}

void IncrementalInferenceEngine::AbsorbAppliedTombstonesLocked() {
  if (!pending_dead_.empty()) {
    std::sort(pending_dead_.begin(), pending_dead_.end());
    size_t mid = applied_dead_.size();
    applied_dead_.insert(applied_dead_.end(), pending_dead_.begin(),
                         pending_dead_.end());
    std::inplace_merge(applied_dead_.begin(), applied_dead_.begin() + mid,
                       applied_dead_.end());
    pending_dead_.clear();
  }
  // The store now holds exactly the live log (tail included): every
  // retraction ever accepted has been renumbered away by the seal.
  TCROWD_CHECK(store_.size() ==
               static_cast<size_t>(log_size_) - applied_dead_.size());
}

size_t IncrementalInferenceEngine::StoreIdForLocked(uint64_t log_id) const {
  size_t applied_before = static_cast<size_t>(
      std::lower_bound(applied_dead_.begin(), applied_dead_.end(), log_id) -
      applied_dead_.begin());
  return static_cast<size_t>(log_id) - applied_before;
}

Status IncrementalInferenceEngine::RetractAnswer(WorkerId worker,
                                                 CellRef cell) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cell.row < 0 || cell.row >= num_rows_ || cell.col < 0 ||
      cell.col >= schema_.num_columns()) {
    return Status::InvalidArgument("retract: cell out of range");
  }
  DrainIngestLocked();  // the target answer may still be queued
  auto& entries =
      cell_live_[static_cast<size_t>(cell.row) * schema_.num_columns() +
                 cell.col];
  size_t pos = entries.size();
  for (size_t k = entries.size(); k-- > 0;) {
    if (entries[k].worker == worker) {
      pos = k;
      break;
    }
  }
  if (pos == entries.size()) {
    return Status::NotFound("retract: worker has no live answer on this cell");
  }
  uint64_t log_id = entries[pos].log_id;
  entries.erase(entries.begin() + pos);
  store_.Tombstone(StoreIdForLocked(log_id));
  pending_dead_.push_back(log_id);
  ++retractions_total_;
  // A retraction is as staleness-relevant as an answer: the next seal
  // scrubs it out of the store.
  answers_since_refresh_.fetch_add(1, std::memory_order_relaxed);
  if (snapshot_ != nullptr) {
    Status st = snapshot_->JournalRetract(log_id);
    if (!st.ok()) DisableCheckpointing(st, "journal retract");
  }
  if (StaleLocked() && !refresh_in_flight_) ScheduleRefreshLocked();
  return Status::Ok();
}

size_t IncrementalInferenceEngine::num_retractions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return retractions_total_;
}

Status IncrementalInferenceEngine::checkpoint_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_status_;
}

AnswerSet IncrementalInferenceEngine::SnapshotAnswers() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  return store_.MaterializeAnswerSet();
}

size_t IncrementalInferenceEngine::num_answers() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  return store_.size();
}

SegmentedAnswerStore::Stats IncrementalInferenceEngine::store_stats() {
  std::lock_guard<std::mutex> lock(mu_);
  DrainIngestLocked();
  return store_.stats();
}

void IncrementalInferenceEngine::WaitForRefresh() {
  std::unique_lock<std::mutex> lock(mu_);
  refresh_done_.wait(lock, [this] { return !refresh_in_flight_; });
}

InferenceResult IncrementalInferenceEngine::Finalize() {
  AnswerSet answers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SealLocked();
    answers = store_.MaterializeAnswerSet();
  }
  TCROWD_TRACE(kEngine, kInfo, "finalize fit start", answers.size(),
               static_cast<uint64_t>(refresh_count()));
  return method_->Infer(schema_, answers);
}

}  // namespace tcrowd::service
