// Span recording and the decorators that time the serving stack from
// outside, at its three public seams:
//
//   ServingBackend    between each net::Server and what it serves (a
//                     CrowdService, or the ShardRouter in front of shards)
//   ShardBackend      between the ShardRouter and one shard, installed via
//                     ShardRouterConfig::backend_factory
//   AssignmentPolicy  handed to each CrowdService; TaskRouter calls it
//
// The decorators forward every call unchanged, so the stack they wrap is
// the daemon's. They stay in place in untraced runs too and then cost one
// relaxed load per call (plus a counter on SubmitBatch and a copy of the
// Finalize result); only a traced run records spans.
//
// Parenting: the benchmark keeps exactly one request outstanding, so every
// span opened while another is open nests inside it, even across threads
// (driver -> router event loop -> shard event loop). The tracer therefore
// keeps one global "innermost open span" instead of per-request context.

#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "assignment/policy.h"
#include "service/crowd_service.h"
#include "service/shard_backend.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Where a span was recorded. kService is a CrowdService behind a server
/// (the whole table, or one shard); kRouter the ShardRouter; kShard the
/// router's call into one shard (a full TCNP round trip).
enum class Layer : uint8_t { kClient, kRouter, kShard, kService, kAssignment };
inline constexpr int kNumLayers = 5;

/// The call a span covers, named after the wire request it serves.
/// kAdmission is answers_since_refresh(), the admission meter read.
enum class Op : uint8_t {
  kHello,
  kLease,
  kSubmit,
  kRetract,
  kBye,
  kFinalize,
  kGather,
  kAdmission,
  kStats,
  kDrained,
  kOther,
  kSelect,
  kRefresh,
  kObserve,
};
inline constexpr int kNumOps = 14;

inline const char* LayerName(Layer layer) {
  static const char* const kNames[] = {"client", "router", "shard", "service",
                                       "assignment"};
  return kNames[static_cast<int>(layer)];
}

inline const char* OpName(Op op) {
  static const char* const kNames[] = {
      "hello",  "lease",   "submit", "retract", "bye",
      "finalize", "gather", "admission", "stats", "drained",
      "other",  "select",  "refresh", "observe"};
  return kNames[static_cast<int>(op)];
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// 1-based index of the enclosing span in the recorded vector; 0 = root.
  uint32_t parent = 0;
  Layer layer = Layer::kClient;
  Op op = Op::kOther;
};

/// In-memory span log. Begin/End take one mutex; the spans are written out
/// only when the benchmark ends.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  uint32_t Begin(Layer layer, Op op) {
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.parent = open_;
    span.layer = layer;
    span.op = op;
    span.start_ns = NowNs();
    spans_.push_back(span);
    open_ = static_cast<uint32_t>(spans_.size());
    return open_;
  }

  void End(uint32_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    Span& span = spans_[id - 1];
    span.end_ns = NowNs();
    open_ = span.parent;
  }

  std::vector<Span> TakeSpans() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = 0;
    return std::move(spans_);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<Span> spans_;
  uint32_t open_ = 0;  ///< innermost open span: the parent of the next one
};

inline Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

class ScopedSpan {
 public:
  ScopedSpan(Layer layer, Op op)
      : id_(GlobalTracer().enabled() ? GlobalTracer().Begin(layer, op) : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) GlobalTracer().End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const uint32_t id_;
};

/// ServingBackend seam. Also keeps, in both runs, the two facts the
/// benchmark needs from the server side: how many SubmitBatch requests got
/// past admission (the base of the shed ratio) and the last Finalize result
/// (the truths scored against the world's ground truth).
class TimedServingBackend : public tcrowd::service::ServingBackend {
 public:
  TimedServingBackend(ServingBackend* inner, Layer layer)
      : inner_(inner), layer_(layer) {}

  ServingBackend* inner() const { return inner_; }
  int64_t submit_batches() const {
    return submit_batches_.load(std::memory_order_relaxed);
  }
  tcrowd::InferenceResult last_finalize() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_finalize_;
  }

  SessionId StartSession(tcrowd::WorkerId worker) override {
    ScopedSpan span(layer_, Op::kHello);
    return inner_->StartSession(worker);
  }
  std::vector<tcrowd::CellRef> RequestTasks(SessionId session,
                                            int k) override {
    ScopedSpan span(layer_, Op::kLease);
    return inner_->RequestTasks(session, k);
  }
  tcrowd::Status SubmitAnswer(SessionId session, tcrowd::CellRef cell,
                              const tcrowd::Value& value) override {
    ScopedSpan span(layer_, Op::kSubmit);
    return inner_->SubmitAnswer(session, cell, value);
  }
  std::vector<tcrowd::Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<tcrowd::CellRef, tcrowd::Value>>& items)
      override {
    ScopedSpan span(layer_, Op::kSubmit);
    submit_batches_.fetch_add(1, std::memory_order_relaxed);
    return inner_->SubmitAnswerBatch(session, items);
  }
  tcrowd::Status RetractAnswer(tcrowd::WorkerId worker,
                               tcrowd::CellRef cell) override {
    ScopedSpan span(layer_, Op::kRetract);
    return inner_->RetractAnswer(worker, cell);
  }
  tcrowd::Status ApplyRecordedLeases(
      SessionId session, const std::vector<tcrowd::CellRef>& cells) override {
    ScopedSpan span(layer_, Op::kOther);
    return inner_->ApplyRecordedLeases(session, cells);
  }
  tcrowd::Status EndSession(SessionId session) override {
    ScopedSpan span(layer_, Op::kBye);
    return inner_->EndSession(session);
  }
  int ExpireStaleSessions() override {
    ScopedSpan span(layer_, Op::kOther);
    return inner_->ExpireStaleSessions();
  }
  bool Drained() const override {
    ScopedSpan span(layer_, Op::kDrained);
    return inner_->Drained();
  }
  tcrowd::service::ServiceStats Stats() const override {
    ScopedSpan span(layer_, Op::kStats);
    return inner_->Stats();
  }
  tcrowd::Status checkpoint_status() const override {
    return inner_->checkpoint_status();
  }
  tcrowd::InferenceResult Finalize() override {
    ScopedSpan span(layer_, Op::kFinalize);
    tcrowd::InferenceResult result = inner_->Finalize();
    std::lock_guard<std::mutex> lock(mu_);
    last_finalize_ = result;
    return result;
  }
  std::vector<tcrowd::Answer> GatherAnswerLog() override {
    ScopedSpan span(layer_, Op::kGather);
    return inner_->GatherAnswerLog();
  }
  tcrowd::MetricsRegistry& metrics() override { return inner_->metrics(); }
  const tcrowd::Schema& schema() const override { return inner_->schema(); }
  int num_rows() const override { return inner_->num_rows(); }
  int64_t answers_since_refresh() override {
    ScopedSpan span(layer_, Op::kAdmission);
    return inner_->answers_since_refresh();
  }
  void RequestRefresh() override {
    ScopedSpan span(layer_, Op::kOther);
    inner_->RequestRefresh();
  }
  uint64_t num_answers() override {
    ScopedSpan span(layer_, Op::kOther);
    return inner_->num_answers();
  }
  int staleness_threshold() const override {
    return inner_->staleness_threshold();
  }

 private:
  ServingBackend* const inner_;
  const Layer layer_;
  std::atomic<int64_t> submit_batches_{0};
  mutable std::mutex mu_;
  tcrowd::InferenceResult last_finalize_;  ///< guarded by mu_
};

/// ShardBackend seam: each span is one router-to-shard call, for a remote
/// shard a full TCNP round trip.
class TimedShardBackend : public tcrowd::service::ShardBackend {
 public:
  explicit TimedShardBackend(std::unique_ptr<ShardBackend> inner)
      : inner_(std::move(inner)) {}

  SessionId StartSession(tcrowd::WorkerId worker) override {
    ScopedSpan span(Layer::kShard, Op::kHello);
    return inner_->StartSession(worker);
  }
  std::vector<tcrowd::CellRef> RequestTasks(SessionId session,
                                            int k) override {
    ScopedSpan span(Layer::kShard, Op::kLease);
    return inner_->RequestTasks(session, k);
  }
  std::vector<tcrowd::Status> SubmitAnswerBatch(
      SessionId session,
      const std::vector<std::pair<tcrowd::CellRef, tcrowd::Value>>& items)
      override {
    ScopedSpan span(Layer::kShard, Op::kSubmit);
    return inner_->SubmitAnswerBatch(session, items);
  }
  tcrowd::Status RetractAnswer(tcrowd::WorkerId worker,
                               tcrowd::CellRef cell) override {
    ScopedSpan span(Layer::kShard, Op::kRetract);
    return inner_->RetractAnswer(worker, cell);
  }
  tcrowd::Status ApplyRecordedLeases(
      SessionId session, const std::vector<tcrowd::CellRef>& cells) override {
    ScopedSpan span(Layer::kShard, Op::kOther);
    return inner_->ApplyRecordedLeases(session, cells);
  }
  tcrowd::Status EndSession(SessionId session) override {
    ScopedSpan span(Layer::kShard, Op::kBye);
    return inner_->EndSession(session);
  }
  bool Drained() override {
    ScopedSpan span(Layer::kShard, Op::kDrained);
    return inner_->Drained();
  }
  tcrowd::service::ServiceStats Stats() override {
    ScopedSpan span(Layer::kShard, Op::kStats);
    return inner_->Stats();
  }
  tcrowd::Status checkpoint_status() override {
    return inner_->checkpoint_status();
  }
  int64_t answers_since_refresh() override {
    ScopedSpan span(Layer::kShard, Op::kAdmission);
    return inner_->answers_since_refresh();
  }
  void RequestRefresh() override { inner_->RequestRefresh(); }
  uint64_t num_answers() override {
    ScopedSpan span(Layer::kShard, Op::kOther);
    return inner_->num_answers();
  }
  tcrowd::Status GatherLog(std::vector<tcrowd::Answer>* out) override {
    ScopedSpan span(Layer::kShard, Op::kGather);
    return inner_->GatherLog(out);
  }
  bool down() const override { return inner_->down(); }
  tcrowd::service::CrowdService* local_service() override {
    return inner_->local_service();
  }

 private:
  std::unique_ptr<ShardBackend> inner_;
};

/// AssignmentPolicy seam: selects, refits and per-answer observes.
class TimedPolicy : public tcrowd::AssignmentPolicy {
 public:
  explicit TimedPolicy(std::unique_ptr<AssignmentPolicy> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void Refresh(const tcrowd::Schema& schema,
               const tcrowd::AnswerSet& answers) override {
    ScopedSpan span(Layer::kAssignment, Op::kRefresh);
    inner_->Refresh(schema, answers);
  }
  void Observe(const tcrowd::Schema& schema, const tcrowd::AnswerSet& answers,
               const tcrowd::Answer& answer) override {
    ScopedSpan span(Layer::kAssignment, Op::kObserve);
    inner_->Observe(schema, answers, answer);
  }
  bool SelectTaskExcluding(const tcrowd::Schema& schema,
                           const tcrowd::AnswerSet& answers,
                           tcrowd::WorkerId worker,
                           const std::vector<tcrowd::CellRef>& exclude,
                           tcrowd::CellRef* out) override {
    ScopedSpan span(Layer::kAssignment, Op::kSelect);
    return inner_->SelectTaskExcluding(schema, answers, worker, exclude, out);
  }

 private:
  std::unique_ptr<AssignmentPolicy> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
