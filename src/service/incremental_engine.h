#ifndef TCROWD_SERVICE_INCREMENTAL_ENGINE_H_
#define TCROWD_SERVICE_INCREMENTAL_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/answer.h"
#include "inference/inference_result.h"
#include "inference/segment_store.h"
#include "inference/tcrowd_model.h"
#include "service/snapshot_store.h"

namespace tcrowd {
class EventRecorder;
}  // namespace tcrowd

namespace tcrowd::service {

/// MAGPIE-style argument block configuring the online inference engine: one
/// plain struct carries the method choice, the model knobs, and the thread
/// control in a single hand-off.
struct InferenceArgs {
  /// Truth-inference method Finalize() runs over the answer log: "tcrowd"
  /// (default), its restricted variants "tc-onlycate"/"tc-onlycont", or a
  /// baseline: "mv", "median", "crh", "catd", "ds", "zencrowd", "glad",
  /// "gtm". IncrementalInferenceEngine::BatchMethod builds it.
  std::string method = "tcrowd";

  /// Model knobs for the T-Crowd EM (ignored by baseline methods).
  TCrowdOptions tcrowd_options = TCrowdOptions::Fast();

  /// A refresh (seal + checkpoint of the new slice) is scheduled once this
  /// many answers have been absorbed since the last (started) refresh.
  int staleness_threshold = 64;

  /// Shards the Finalize fit fans its E/M steps across: the T-Crowd fit
  /// runs with max(tcrowd_options.num_threads, num_shards) executor shards.
  int num_shards = 1;

  /// When set, refreshes run as background jobs on the caller-supplied
  /// common::ThreadPool and SubmitAnswer never blocks on a seal's fsyncs;
  /// when clear (or no pool is given), refreshes run inline.
  bool async_refresh = true;

  /// Answers the log must have accepted (retracted ones included) before
  /// any refresh runs; the first refresh is scheduled as soon as it has.
  int min_answers_for_fit = 8;

  /// Submitted answers buffer in the engine's ingest queue and are drained
  /// into the answer log in one pass once this many are queued (or
  /// earlier, when a staleness crossing / read needs them) — amortizing
  /// the engine lock and the journal append over the batch instead of
  /// locking per answer. 1 restores per-answer absorption.
  int ingest_batch_size = 32;

  /// Durable segment persistence (docs/PERSISTENCE.md). When a directory is
  /// set, the engine restores the answer log from it at construction,
  /// journals every ingest-drained batch, and persists each newly sealed
  /// slice of the log at the refresh seal — keeping the hot path O(new
  /// answers). Empty (default) disables persistence entirely.
  CheckpointArgs checkpoint;

  /// Event recorder (unowned, nullable): the engine records a kSeal event
  /// after each seal. CrowdService plumbs its configured recorder in
  /// here; seals are informational for replay but load-bearing for
  /// incident forensics.
  EventRecorder* recorder = nullptr;
};

/// The service's answer log: owns the SegmentedAnswerStore, absorbs
/// answers batch-wise, seals and checkpoints the new slice of the log
/// whenever staleness crosses the refresh threshold, and runs the batch
/// method over the live log at Finalize().
///
/// The answer path (see docs/DATA_LIFECYCLE.md):
///
///   SubmitAnswer/SubmitAnswerBatch -> ingest queue -> (drain) answer log
///   -> refresh: Seal() hands over the new slice, which is persisted
///   -> Finalize(): BatchMethod(args) over the materialized live log
///
/// A refresh touches ONLY the slice appended since the previous one
/// (O(new answers)). Refresh requests arriving while a refresh is queued
/// coalesce into exactly one follow-up refresh. The engine fits no model
/// while serving: the assignment policies own the online T-Crowd model.
///
/// Thread-safety: every public method may be called concurrently. Internal
/// state is guarded by one engine mutex; the ingest queue has its own
/// cheaper mutex so submits don't contend with reads or seals. The
/// staleness meter and the refresh count are atomics written under the
/// engine mutex, so their readers never wait on a seal's fsyncs. Read APIs
/// drain the ingest queue first (read-your-writes).
class IncrementalInferenceEngine {
 public:
  /// `pool` (optional, unowned) runs async refreshes; it must outlive the
  /// engine. Pass nullptr to force inline refreshes. CHECK-fails on an
  /// unknown `args.method`.
  IncrementalInferenceEngine(const Schema& schema, int num_rows,
                             InferenceArgs args, ThreadPool* pool);
  /// Blocks until any in-flight or coalesced-pending refresh has drained,
  /// then drains the ingest queue, so a clean shutdown journals every
  /// accepted answer.
  ~IncrementalInferenceEngine();

  IncrementalInferenceEngine(const IncrementalInferenceEngine&) = delete;
  IncrementalInferenceEngine& operator=(const IncrementalInferenceEngine&) =
      delete;

  /// The batch method `args.method` names, with T-Crowd's options
  /// normalized as the engine normalizes them (num_threads =
  /// max(num_threads, num_shards)); null for an unknown name. Finalize()
  /// of the engine and of the ShardRouter run it over the live log.
  static std::unique_ptr<TruthInference> BatchMethod(
      const InferenceArgs& args);

  /// Queues the answer for ingestion. The queue is drained into the answer
  /// log — with one journal append per drained batch — when
  /// ingest_batch_size answers have gathered, when staleness crosses the
  /// refresh threshold, or when a read needs the answers. In async mode
  /// never blocks on a seal; in inline mode the staleness-crossing call
  /// runs the refresh itself.
  void SubmitAnswer(const Answer& answer);

  /// Queues a whole batch under one ingest lock; the batched ingestion
  /// entry point behind CrowdService::SubmitAnswerBatch. Answers keep their
  /// in-batch order in the global log. Same drain/refresh semantics as
  /// SubmitAnswer.
  void SubmitAnswerBatch(const Answer* answers, size_t n);

  /// Explicitly schedules a refresh (subject to min_answers_for_fit). If
  /// one is already queued, the request coalesces: exactly one follow-up
  /// refresh runs after it, no matter how many requests arrived meanwhile.
  /// Non-blocking in async mode; runs the refresh inline otherwise.
  void RequestRefresh();

  /// Retracts the newest live answer `worker` gave on `cell`: marks it dead
  /// in the log, journals a durable retraction record when checkpointing
  /// is on, and counts toward staleness. Finalize() never sees a retracted
  /// answer. NotFound when the worker has no live answer on the cell.
  Status RetractAnswer(WorkerId worker, CellRef cell);

  /// Full export of the current answer log as a plain AnswerSet. O(total
  /// answers) by design. Drains the ingest queue first.
  AnswerSet SnapshotAnswers();
  /// Live answers absorbed so far, retracted ones excluded (drains the
  /// ingest queue).
  size_t num_answers();

  /// Blocks until no refresh is queued, running, or pending through
  /// coalescing.
  void WaitForRefresh();

  /// Drains pending ingests, seals and checkpoints the new slice (one
  /// refresh pass), then runs BatchMethod(args) over the live answer log
  /// outside the engine mutex and returns its result — the same call a
  /// batch fit over SnapshotAnswers() makes, so the two agree bit for bit.
  /// Blocks.
  InferenceResult Finalize();

  /// Refresh passes run so far; lock-free.
  int refresh_count() const {
    return refresh_count_.load(std::memory_order_relaxed);
  }
  /// Answers (and retractions) absorbed into the store since the last
  /// scheduled refresh, excluding answers still buffered in the ingest
  /// queue: the admission meter. Lock-free.
  int answers_since_refresh() const {
    return answers_since_refresh_.load(std::memory_order_relaxed);
  }
  const InferenceArgs& args() const { return args_; }
  /// Counters of the engine-owned answer log (appends, seals). Drains the
  /// ingest queue.
  SegmentedAnswerStore::Stats store_stats();

  /// Health of the persistence subsystem. OK while checkpointing is
  /// disabled or working; once an open/restore or write fails the engine
  /// stops persisting (it keeps serving from memory — durability degrades,
  /// inference does not) and this returns the first error.
  Status checkpoint_status() const;
  /// Live answers recovered from the checkpoint directory at construction
  /// (durable log minus durable retractions). Constant after the
  /// constructor returns.
  size_t restored_answers() const { return restored_; }
  /// Durable retractions replayed at construction. Constant after the
  /// constructor returns.
  size_t restored_retractions() const { return restored_retractions_; }
  /// Retractions accepted by this engine instance (restored ones excluded).
  size_t num_retractions() const;

 private:
  /// Moves every queued answer into the answer log and journals the
  /// batch; `mu_` must be held (takes `ingest_mu_` briefly inside — always
  /// in that order).
  void DrainIngestLocked();
  /// Drains, then schedules a refresh if the absorbed state is stale.
  void DrainAndMaybeRefresh();
  /// Schedules a refresh on the pool, or runs it inline; `mu_` must be
  /// held. Sets the coalescing flag instead when a refresh is queued.
  void ScheduleRefreshLocked();
  /// The pool job: refresh passes under `mu_` while coalesced requests
  /// are pending.
  void RunRefresh();
  /// One refresh pass: drain, seal the new slice, persist it (O(new
  /// answers); disables persistence on failure) and record the seal; `mu_`
  /// must be held.
  void SealLocked();
  /// Staleness predicate; `mu_` must be held.
  bool StaleLocked() const;
  /// Restores the answer log from the snapshot directory (constructor
  /// only, before any concurrency). Disables persistence on failure.
  void RestoreFromCheckpoint();
  /// Records a persistence failure and stops persisting; `mu_` must be
  /// held (or the constructor running single-threaded).
  void DisableCheckpointing(const Status& error, const char* during);

  const Schema schema_;
  const int num_rows_;
  const InferenceArgs args_;
  ThreadPool* const pool_;  // unowned; nullptr = inline refresh
  /// The Finalize method (BatchMethod(args_)); never null.
  const std::unique_ptr<TruthInference> method_;

  /// Ingest queue: submits append here under `ingest_mu_` only, so the
  /// submit hot path never contends with reads or seals. Lock order: mu_
  /// before ingest_mu_ (never the reverse).
  std::mutex ingest_mu_;
  std::vector<Answer> ingest_;
  /// Answers ever queued (ingest + absorbed); a lock-free drain hint.
  std::atomic<size_t> total_queued_{0};
  /// The staleness meter and the refresh count: written under `mu_`, read
  /// lock-free (admission control, Stats and the submit drain hint).
  std::atomic<int> answers_since_refresh_{0};
  std::atomic<int> refresh_count_{0};

  mutable std::mutex mu_;
  std::condition_variable refresh_done_;
  /// The answer log, in log-id order.
  SegmentedAnswerStore store_;
  /// Durable side of the log (null when checkpointing is disabled or has
  /// failed). All access under `mu_` (constructor excepted).
  std::unique_ptr<SnapshotStore> snapshot_;
  Status checkpoint_status_;
  size_t restored_ = 0;
  size_t restored_retractions_ = 0;
  uint64_t retractions_total_ = 0;
  /// A refresh job is queued or running on the pool.
  bool refresh_in_flight_ = false;
  /// A refresh was requested while one was in flight; the job runs exactly
  /// one more pass before clearing refresh_in_flight_.
  bool refresh_pending_ = false;
  bool shutdown_ = false;
};

}  // namespace tcrowd::service

#endif  // TCROWD_SERVICE_INCREMENTAL_ENGINE_H_
