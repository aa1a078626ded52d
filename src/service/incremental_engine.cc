#include "service/incremental_engine.h"

#include <algorithm>
#include <optional>
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
      method_(BatchMethod(args_)),
      store_(num_rows, schema.num_columns()) {
  TCROWD_CHECK(method_ != nullptr)
      << "unknown inference method " << args_.method;
  if (args_.checkpoint.enabled()) RestoreFromCheckpoint();
}

void IncrementalInferenceEngine::DisableCheckpointing(const Status& error,
                                                      const char* during) {
  TCROWD_LOG(Warning) << "checkpointing disabled (" << during
                      << "): " << error.ToString()
                      << " — serving continues from memory only";
  if (checkpoint_status_.ok()) checkpoint_status_ = error;
  snapshot_.reset();
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
  // The store takes the durable log as it is on disk: log ids keep
  // counting from the durable total, durable retractions are dead in
  // place, and the journal tail past the sealed prefix is what the next
  // seal persists. Finalize() then materializes the exact live sequence
  // the uninterrupted run would, even when the crash fell between a
  // retraction and the seal that folds it.
  restored_retractions_ = log.retracted_ids.size();
  store_.Restore(std::move(log.answers), log.retracted_ids,
                 log.sealed_answers);
  restored_ = store_.size();
}

IncrementalInferenceEngine::~IncrementalInferenceEngine() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_ = true;
  refresh_done_.wait(lock, [this] { return !refresh_in_flight_; });
  // A clean shutdown journals what the queue still holds.
  DrainIngestLocked();
}

std::unique_ptr<TruthInference> IncrementalInferenceEngine::BatchMethod(
    const InferenceArgs& args) {
  TCrowdOptions options = args.tcrowd_options;
  options.num_threads =
      std::max(options.num_threads, std::max(1, args.num_shards));
  const std::string& m = args.method;
  if (m == "tcrowd") return std::make_unique<TCrowdModel>(options);
  if (m == "tc-onlycate") {
    return std::make_unique<TCrowdModel>(
        TCrowdModel::OnlyCategorical(options));
  }
  if (m == "tc-onlycont") {
    return std::make_unique<TCrowdModel>(
        TCrowdModel::OnlyContinuous(options));
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
  // One pass under a single acquisition of the engine mutex; the batch
  // takes the next log ids, which are what the journal records.
  uint64_t base = store_.log_size();
  store_.AppendBatch(batch.data(), batch.size());
  answers_since_refresh_.fetch_add(static_cast<int>(batch.size()),
                                   std::memory_order_relaxed);
  if (snapshot_ != nullptr) {
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
          store_.log_size() >= static_cast<size_t>(args_.min_answers_for_fit));
}

void IncrementalInferenceEngine::ScheduleRefreshLocked() {
  if (shutdown_ ||
      store_.log_size() < static_cast<size_t>(args_.min_answers_for_fit)) {
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
  // Checkpoint-on-seal: the newly sealed slice goes to disk exactly once,
  // while it is still O(answers since the last refresh). It holds the
  // retracted answers too: on disk they stay in place, and the retraction
  // records (folded into the manifest by this persist) mark them dead.
  SegmentedAnswerStore::Slice slice = store_.Seal();
  if (snapshot_ != nullptr && slice.size > 0) {
    Status st = snapshot_->PersistSealed(slice.answers, slice.size);
    if (!st.ok()) DisableCheckpointing(st, "segment persist");
  }
  size_t live = store_.size();
  TCROWD_TRACE(kSeal, kInfo, "refresh seal", live,
               static_cast<uint64_t>(refresh_count()));
  if (args_.recorder != nullptr) args_.recorder->RecordSeal(live);
}

void IncrementalInferenceEngine::RunRefresh() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!shutdown_) {
    SealLocked();
    refresh_count_.fetch_add(1, std::memory_order_relaxed);
    if (!refresh_pending_) break;
    // Coalesced requests: exactly one more pass over the new slice;
    // refresh_in_flight_ stays set so waiters keep waiting.
    refresh_pending_ = false;
    answers_since_refresh_.store(0, std::memory_order_relaxed);
  }
  refresh_in_flight_ = false;
  // Notify under the lock: a waiter (incl. the destructor) may otherwise
  // finish and destroy the condition variable before the notify lands.
  refresh_done_.notify_all();
}

Status IncrementalInferenceEngine::RetractAnswer(WorkerId worker,
                                                 CellRef cell) {
  std::lock_guard<std::mutex> lock(mu_);
  if (cell.row < 0 || cell.row >= num_rows_ || cell.col < 0 ||
      cell.col >= schema_.num_columns()) {
    return Status::InvalidArgument("retract: cell out of range");
  }
  DrainIngestLocked();  // the target answer may still be queued
  std::optional<uint64_t> log_id = store_.RetractNewest(worker, cell);
  if (!log_id.has_value()) {
    return Status::NotFound("retract: worker has no live answer on this cell");
  }
  ++retractions_total_;
  // A retraction is as staleness-relevant as an answer: the next seal
  // folds it into the durable manifest.
  answers_since_refresh_.fetch_add(1, std::memory_order_relaxed);
  if (snapshot_ != nullptr) {
    Status st = snapshot_->JournalRetract(*log_id);
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
