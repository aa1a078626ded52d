// perfbench: end-to-end and per-layer benchmark of the T-Crowd serving
// stack (perfbench/README.md).
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//             [--work-dir=DIR]
//       Runs the workload for at least S seconds and prints every metric
//       with its unit and sample count; the last stdout line is the JSON
//       result. Exits 1 when a correctness gate fails.
//   perfbench --workload=serve-structure --seed=N --parity
//       One arrival stream at exactly seed N; prints the Finalize digest the
//       hosting-parity self-test compares with tcrowd_serverd's.
//   perfbench --workload=NAME --daemon-flags
//       Prints the tcrowd_serverd / tcrowd_cli world flags of the workload.
//   perfbench --list-workloads
//
// The benchmark hosts the stack itself, assembled as tcrowd_serverd
// assembles it (tools/serving_options, same seeds), with the seam
// decorators of seams.h in place. Load is a closed loop: one driver thread,
// four connections, one arrival (Hello, Lease, SubmitBatch, Bye) in flight
// at a time, on the per-arrival streams LoadGenerator::RunSocket derives.
// Serialized arrivals make the accepted history a pure function of the
// seed, so every repetition checks its Finalize digest.

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "inference/segment_codec.h"
#include "inference/tcrowd_model.h"
#include "net/client.h"
#include "net/server.h"
#include "platform/event_log.h"
#include "platform/metrics.h"
#include "seams.h"
#include "serving_options.h"
#include "service/crowd_service.h"
#include "service/shard_backend.h"
#include "service/shard_router.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tcrowd::Answer;
using tcrowd::AnswerSet;
using tcrowd::CellRef;
using tcrowd::Status;
using tcrowd::WorkerId;
namespace net = tcrowd::net;
namespace service = tcrowd::service;
namespace sim = tcrowd::sim;
namespace tools = tcrowd::tools;

/// One workload: a world, a topology and an arrival shape. Everything not
/// named here is the daemon's flag default (ratio 0.5, engine tcrowd,
/// threads 2, staleness 64, admission budget 8 x staleness).
struct Workload {
  const char* name;
  int rows;
  int cols;
  int workers;
  int target;
  const char* policy;
  int tasks_per_arrival;
  /// Share of arrivals that also retract one of the answers they just gave.
  double retract_prob;
  /// 0: one CrowdService behind one server. N: a ShardRouter whose
  /// RemoteShardBackends talk to N shard servers, each shard checkpointing
  /// into a fresh directory.
  int shards;
};

// serve-structure stresses assignment: the StructureAware policy refits its
// model inline every 32 answers and selects per arrival. ingest-router
// stresses the wire, the router's shard fan-out, engine ingest, admission,
// checkpointing and the merged Finalize; its looping policy bypasses
// assignment cost.
constexpr Workload kWorkloads[] = {
    {"serve-structure", 150, 6, 100, 4, "structure", 1, 0.0, 0},
    {"ingest-router", 400, 6, 100, 5, "looping", 8, 0.02, 2},
};

constexpr int kConnections = 4;
/// Extra boots before the measured repetitions, so setup_s is a median.
constexpr int kSetupBoots = 30;
/// Truth quality is scored on the first kScoredReps repetitions, which
/// every untraced run completes however fast it goes: a fixed set of worlds
/// per seed, so the quality figures depend on the code and the seed only.
constexpr uint64_t kScoredReps = 8;
/// Repetition r runs at seed + r * kRepSeedStride (repetition 0 at the
/// seed itself, which is what the parity self-test reproduces).
constexpr uint64_t kRepSeedStride = 7919;

/// SplitMix64 finalizer, the one LoadGenerator derives its per-arrival
/// streams with; the driver must derive the same streams.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Peak resident set of this process image. VmHWM, unlike getrusage's
/// ru_maxrss, starts afresh at exec, so the launcher's footprint is not in it.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

tools::ServingOptions OptionsFor(const Workload& w, uint64_t seed) {
  tools::ServingOptions opt;
  opt.seed = seed;
  opt.rows = w.rows;
  opt.cols = w.cols;
  opt.workers = w.workers;
  opt.policy = w.policy;
  opt.target = w.target;
  return opt;
}

/// A net::Server running its event loop on its own thread.
class ServerThread {
 public:
  ServerThread(service::ServingBackend* backend, net::ServerOptions options)
      : server_(backend, options) {}
  ~ServerThread() {
    if (thread_.joinable()) {
      server_.Stop();
      thread_.join();
    }
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  Status Start() {
    Status st = server_.Listen("127.0.0.1", 0);
    if (!st.ok()) return st;
    // A failed event loop surfaces as failed client calls, which fail the
    // run's gates.
    thread_ = std::thread([this] { (void)server_.Run(); });
    return Status::Ok();
  }
  uint16_t port() const { return server_.port(); }
  net::NetStats net_stats() const { return server_.net_stats(); }

 private:
  net::Server server_;
  std::thread thread_;
};

/// The hosted serving stack of one repetition, built the way
/// tcrowd_serverd builds its single-engine role, or its shard-daemon and
/// router roles for a sharded workload. Members are declared so that
/// destruction stops the front server first and the shard servers last.
class Stack {
 public:
  Stack(const Workload& w, uint64_t seed, const std::string& checkpoint_dir)
      : opt_(OptionsFor(w, seed)),
        world_(tools::BuildServingWorld(opt_)),
        config_(tools::MakeServingConfig(opt_)) {
    const tcrowd::Schema& schema = world_.dataset.schema;
    const int rows = world_.dataset.num_rows();
    if (w.shards == 0) {
      auto svc = std::make_unique<service::CrowdService>(
          schema, rows,
          std::make_unique<TimedPolicy>(tools::MakeServingPolicy(w.policy, seed)),
          config_);
      hosts_.push_back(svc.get());
      backend_ = std::move(svc);
      front_ = std::make_unique<TimedServingBackend>(backend_.get(),
                                                     Layer::kService);
      status_ = StartFront(net::ServerOptions());
      return;
    }

    ranges_ = service::PartitionRows(rows, w.shards);
    service::ServiceConfig shard_base = config_;
    shard_base.inference.checkpoint.directory = checkpoint_dir;
    std::vector<uint16_t> ports;
    for (int s = 0; s < w.shards; ++s) {
      auto svc = std::make_unique<service::CrowdService>(
          schema, ranges_[s].num_rows(),
          std::make_unique<TimedPolicy>(tools::MakeServingPolicy(
              w.policy, seed + static_cast<uint64_t>(s))),
          service::DeriveShardServiceConfig(shard_base, schema, rows,
                                            ranges_[s], w.shards, s));
      status_ = svc->checkpoint_status();
      if (!status_.ok()) return;
      hosts_.push_back(svc.get());
      shard_fronts_.push_back(
          std::make_unique<TimedServingBackend>(svc.get(), Layer::kService));
      shard_services_.push_back(std::move(svc));
      shard_servers_.push_back(std::make_unique<ServerThread>(
          shard_fronts_.back().get(), net::ServerOptions()));
      status_ = shard_servers_.back()->Start();
      if (!status_.ok()) return;
      ports.push_back(shard_servers_.back()->port());
    }

    service::ShardRouterConfig router_config;
    router_config.num_shards = w.shards;
    router_config.base = config_;
    router_config.auto_restore = true;
    std::vector<service::ShardRange> ranges = ranges_;
    router_config.backend_factory = [&schema, ports, ranges](int shard) {
      service::RemoteShardBackend::Options ropt;
      ropt.host = "127.0.0.1";
      ropt.port = ports[static_cast<size_t>(shard)];
      ropt.expected_fingerprint = tcrowd::SchemaFingerprint(
          schema, ranges[static_cast<size_t>(shard)].num_rows());
      return std::make_unique<TimedShardBackend>(
          std::make_unique<service::RemoteShardBackend>(ropt));
    };
    backend_ = std::make_unique<service::ShardRouter>(schema, rows,
                                                      std::move(router_config));
    status_ = backend_->checkpoint_status();
    if (!status_.ok()) return;
    front_ = std::make_unique<TimedServingBackend>(backend_.get(),
                                                   Layer::kRouter);
    // The router role never sheds: its shard servers meter admission.
    net::ServerOptions router_options;
    router_options.inflight_budget = -1;
    status_ = StartFront(router_options);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const Status& status() const { return status_; }
  uint16_t port() const { return server_->port(); }
  const sim::SynthesizedWorld& world() const { return world_; }
  const service::ServiceConfig& config() const { return config_; }
  TimedServingBackend& front() { return *front_; }
  /// Every CrowdService of the stack (the whole table, or one per shard).
  const std::vector<service::CrowdService*>& hosts() const { return hosts_; }
  /// The fronts of the servers that meter admission: the CrowdServices'.
  std::vector<const TimedServingBackend*> AdmissionFronts() const {
    if (shard_fronts_.empty()) return {front_.get()};
    std::vector<const TimedServingBackend*> out;
    for (const auto& f : shard_fronts_) out.push_back(f.get());
    return out;
  }
  std::vector<const ServerThread*> Servers() const {
    std::vector<const ServerThread*> out{server_.get()};
    for (const auto& s : shard_servers_) out.push_back(s.get());
    return out;
  }

 private:
  Status StartFront(net::ServerOptions options) {
    server_ = std::make_unique<ServerThread>(front_.get(), options);
    return server_->Start();
  }

  const tools::ServingOptions opt_;
  const sim::SynthesizedWorld world_;
  const service::ServiceConfig config_;
  std::vector<service::ShardRange> ranges_;
  std::vector<service::CrowdService*> hosts_;
  std::vector<std::unique_ptr<service::CrowdService>> shard_services_;
  std::vector<std::unique_ptr<TimedServingBackend>> shard_fronts_;
  std::vector<std::unique_ptr<ServerThread>> shard_servers_;
  std::unique_ptr<service::ServingBackend> backend_;
  std::unique_ptr<TimedServingBackend> front_;
  std::unique_ptr<ServerThread> server_;
  Status status_;
};

/// Per-layer figures of one traced repetition (counts are per repetition).
struct LayerRep {
  double refresh_busy_share = 0.0;
  double selects = 0.0;
  double refreshes = 0.0;
  double backfill_ratio = 0.0;
  double frames_per_arrival = 0.0;
  double write_queue_peak = 0.0;
  double retry_later = 0.0;
  double shed_ratio = 0.0;
  double shard_calls_per_arrival[kNumOps] = {};
  double answer_skew = 0.0;
  double gather_ms = 0.0;
  double engine_refreshes = 0.0;
  double answers_per_refresh = 0.0;
  double backlog_max = 0.0;
  double seals = 0.0;
  double compactions = 0.0;
  double reindex_ratio = 0.0;
  double snapshot_bytes = 0.0;
  double snapshot_files = 0.0;
  double restore_ms = 0.0;
};

/// Everything one benchmark run accumulates over its repetitions.
struct Run {
  std::vector<double> setup_s;
  /// Per-repetition latency percentiles, and the samples behind them.
  std::vector<double> lease_p50, lease_p99, submit_p50, submit_p99;
  size_t leases = 0, submits = 0;
  std::vector<double> answers_per_s, finalize_s, fit_s;
  std::vector<double> error_rate, mnad;
  int64_t reps = 0;
  int64_t arrivals = 0;
  double peak_rss_mb = 0.0;
  int64_t ops = 0;
  int64_t failed_ops = 0;
  std::vector<std::string> failures;

  // Traced runs only.
  std::vector<double> drive_untraced_s, drive_traced_s;
  std::vector<double> self_us[kNumLayers][kNumOps];
  std::vector<double> total_us[kNumLayers][kNumOps];
  std::vector<double> refresh_ms;
  std::vector<LayerRep> layers;
  std::vector<double> em_iterations, em_converged, em_ns_per_answer_iter;
  std::vector<std::vector<Span>> spans;
};

/// The paper-faithful batch fit (TCrowdOptions() defaults, serial) over a
/// served answer log: fit_s and the EM convergence figures.
struct PaperFit {
  double seconds = 0.0;
  int iterations = 0;
  bool converged = false;
};

/// Fits repeatedly until kMinFitSeconds have passed and reports the mean
/// time of one fit: a sub-second fit timed once is at the mercy of a
/// shared machine's short stalls.
constexpr double kMinFitSeconds = 1.0;

PaperFit RunPaperFit(const tcrowd::Schema& schema, int rows,
                     const std::vector<Answer>& log) {
  AnswerSet answers(rows, schema.num_columns());
  for (const Answer& a : log) answers.Add(a);
  tcrowd::TCrowdModel model{tcrowd::TCrowdOptions()};
  PaperFit fit;
  int fits = 0;
  const int64_t t0 = NowNs();
  do {
    tcrowd::TCrowdState state = model.Fit(schema, answers);
    fit.iterations = state.em_iterations;
    ++fits;
  } while (Seconds(NowNs() - t0) < kMinFitSeconds);
  fit.seconds = Seconds(NowNs() - t0) / fits;
  fit.converged = fit.iterations < model.options().max_em_iterations;
  return fit;
}

/// Digest of a fresh batch fit over `log` with the serving engine's own
/// model options and shard count: what Finalize must reproduce bit for bit.
uint64_t BatchFitDigest(const tcrowd::Schema& schema, int rows,
                        const std::vector<Answer>& log,
                        const service::InferenceArgs& args) {
  AnswerSet answers(rows, schema.num_columns());
  for (const Answer& a : log) answers.Add(a);
  tcrowd::TCrowdOptions options = args.tcrowd_options;
  options.num_threads = args.num_shards;
  tcrowd::TCrowdModel model(options);
  return tcrowd::TruthDigest(model.Infer(schema, answers).estimated_truth);
}

void DirStats(const fs::path& dir, double* bytes, double* files) {
  *bytes = 0.0;
  *files = 0.0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      *bytes += static_cast<double>(it->file_size(ec));
      *files += 1.0;
    }
  }
}

/// Boots a stack and connects the driver's clients; returns the elapsed
/// set-up time in seconds, or a negative value on failure.
double Boot(const Workload& w, uint64_t seed, const std::string& ckpt,
            std::unique_ptr<Stack>* stack, std::vector<net::Client>* clients,
            Run* run) {
  int64_t t0 = NowNs();
  *stack = std::make_unique<Stack>(w, seed, ckpt);
  if (!(*stack)->status().ok()) {
    run->failures.push_back("boot: " + (*stack)->status().ToString());
    return -1.0;
  }
  *clients = std::vector<net::Client>(kConnections);
  for (net::Client& c : *clients) {
    Status st = c.Connect("127.0.0.1", (*stack)->port());
    if (!st.ok()) {
      run->failures.push_back("connect: " + st.ToString());
      return -1.0;
    }
  }
  return Seconds(NowNs() - t0);
}

/// What the driver saw over the wire.
struct Drive {
  int64_t arrivals = 0;
  int64_t accepted = 0;
  int64_t retracted = 0;
  double seconds = 0.0;
  int64_t backlog_max = 0;
  std::vector<double> lease_ms, submit_ms;
};

/// Counts one client call into the run's op accounting.
bool Track(Run* run, const Status& st, bool wire_ok, const char* what) {
  ++run->ops;
  if (st.ok() && wire_ok) return true;
  ++run->failed_ops;
  run->failures.push_back(std::string(what) + ": " +
                          (st.ok() ? "non-OK wire status" : st.ToString()));
  return false;
}

/// Drives arrivals until the service reports itself drained. Mirrors
/// LoadGenerator::RunSocket call for call (same streams, same connection
/// rotation), adding only the timing, the optional retraction, and, in a
/// traced run, a backlog sample after each arrival.
bool DriveArrivals(const Workload& w, uint64_t seed, Stack* stack,
                   std::vector<net::Client>* clients, bool traced, Run* run,
                   Drive* out) {
  const sim::CrowdSimulator& crowd = *stack->world().crowd;
  const uint64_t fingerprint =
      tcrowd::SchemaFingerprint(crowd.schema(), crowd.truth().num_rows());
  const uint64_t load_seed = seed + 3;  // the serve-sim / client derivation
  const int64_t max_arrivals =
      20LL * w.rows * w.cols * w.target / w.tasks_per_arrival + 1000;
  const auto ok = static_cast<uint8_t>(net::WireStatus::kOk);

  int64_t t0 = NowNs();
  bool drained = false;
  for (int64_t index = 0; !drained; ++index) {
    if (index >= max_arrivals) {
      run->failures.push_back("drive: service never drained");
      return false;
    }
    const uint64_t stream = Mix64(load_seed ^ Mix64(static_cast<uint64_t>(index)));
    tcrowd::Rng session_rng(stream);
    net::Client& client =
        (*clients)[static_cast<size_t>(index % kConnections)];
    ++out->arrivals;

    WorkerId worker = crowd.NextWorker(&session_rng);
    net::HelloResponse hello;
    Status st;
    {
      ScopedSpan span(Layer::kClient, Op::kHello);
      st = client.Hello(net::HelloRequest{worker}, &hello);
    }
    if (!Track(run, st, hello.status == net::WireStatus::kOk, "hello")) {
      return false;
    }
    if (hello.schema_fingerprint != fingerprint) {
      run->failures.push_back("hello: schema fingerprint mismatch");
      return false;
    }

    net::LeaseRequest lease_req;
    lease_req.session = hello.session;
    lease_req.max_tasks = static_cast<uint32_t>(w.tasks_per_arrival);
    net::LeaseResponse lease;
    int64_t l0 = NowNs();
    {
      ScopedSpan span(Layer::kClient, Op::kLease);
      st = client.Lease(lease_req, &lease);
    }
    out->lease_ms.push_back(static_cast<double>(NowNs() - l0) * 1e-6);
    if (!Track(run, st, lease.status == net::WireStatus::kOk, "lease")) {
      return false;
    }

    bool retracted = false;
    if (!lease.cells.empty()) {
      net::SubmitBatchRequest submit;
      submit.session = hello.session;
      for (const CellRef& cell : lease.cells) {
        submit.items.emplace_back(cell,
                                  crowd.AnswerWith(worker, cell, &session_rng));
      }
      net::SubmitBatchResponse verdicts;
      int64_t s0 = NowNs();
      {
        ScopedSpan span(Layer::kClient, Op::kSubmit);
        st = client.SubmitBatch(submit, &verdicts);
      }
      out->submit_ms.push_back(static_cast<double>(NowNs() - s0) * 1e-6);
      if (!Track(run, st, verdicts.status == net::WireStatus::kOk, "submit")) {
        return false;
      }
      std::vector<CellRef> accepted;
      for (size_t i = 0; i < verdicts.item_status.size(); ++i) {
        ++run->ops;
        if (verdicts.item_status[i] == ok) {
          accepted.push_back(submit.items[i].first);
        } else {
          ++run->failed_ops;
        }
      }
      out->accepted += static_cast<int64_t>(accepted.size());

      // A separate stream, so the session stream stays RunSocket's.
      tcrowd::Rng retract_rng(Mix64(~stream));
      if (!accepted.empty() && retract_rng.Bernoulli(w.retract_prob)) {
        net::RetractRequest retract;
        retract.worker = worker;
        retract.cell = accepted[static_cast<size_t>(retract_rng.UniformInt(
            0, static_cast<int>(accepted.size()) - 1))];
        net::RetractResponse retract_resp;
        {
          ScopedSpan span(Layer::kClient, Op::kRetract);
          st = client.Retract(retract, &retract_resp);
        }
        if (!Track(run, st, retract_resp.status == net::WireStatus::kOk,
                   "retract")) {
          return false;
        }
        ++out->retracted;
        retracted = true;
      }
    }

    net::ByeResponse bye;
    {
      ScopedSpan span(Layer::kClient, Op::kBye);
      st = client.Bye(net::ByeRequest{hello.session}, &bye);
    }
    if (!Track(run, st, bye.status == net::WireStatus::kOk, "bye")) {
      return false;
    }
    // A retraction refunds budget, so the service is not drained after it.
    drained = lease.drained != 0 && !retracted;

    if (traced) {
      for (service::CrowdService* host : stack->hosts()) {
        out->backlog_max = std::max<int64_t>(
            out->backlog_max, host->engine().answers_since_refresh());
      }
    }
  }
  out->seconds = Seconds(NowNs() - t0);
  return true;
}

/// Self time of every span: its duration minus that of its direct children.
std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] =
        (static_cast<double>(spans[i].end_ns - spans[i].start_ns) - child_ns[i]) *
        1e-3;
  }
  return self;
}

/// Server-side figures of a traced repetition, read before teardown.
LayerRep ReadLayers(Stack& stack, const Drive& drive,
                    const std::vector<service::ServiceStats>& host_stats,
                    int64_t engine_refreshes, int64_t live) {
  LayerRep layer;
  double frames = 0;
  for (const ServerThread* server : stack.Servers()) {
    net::NetStats ns = server->net_stats();
    frames += static_cast<double>(ns.frames_processed);
    layer.write_queue_peak = std::max(
        layer.write_queue_peak, static_cast<double>(ns.write_queue_peak));
    layer.retry_later += static_cast<double>(ns.retry_later_total);
  }
  // Only the servers in front of a CrowdService shed; a shed SubmitBatch
  // never reaches the backend, so attempts = sheds + batches served.
  double attempts = layer.retry_later;
  for (const TimedServingBackend* front : stack.AdmissionFronts()) {
    attempts += static_cast<double>(front->submit_batches());
  }
  layer.shed_ratio = attempts > 0 ? layer.retry_later / attempts : 0.0;
  layer.frames_per_arrival = frames / static_cast<double>(drive.arrivals);
  double assigned = 0, backfilled = 0, max_answers = 0, sum_answers = 0;
  for (const service::ServiceStats& s : host_stats) {
    assigned += static_cast<double>(s.assignments);
    backfilled += static_cast<double>(s.backfilled);
    max_answers = std::max(max_answers, static_cast<double>(s.budget_spent));
    sum_answers += static_cast<double>(s.budget_spent);
  }
  layer.backfill_ratio = assigned > 0 ? backfilled / assigned : 0.0;
  layer.answer_skew =
      max_answers / (sum_answers / static_cast<double>(host_stats.size()));
  layer.engine_refreshes = static_cast<double>(engine_refreshes);
  layer.answers_per_refresh =
      engine_refreshes > 0 ? static_cast<double>(live) / engine_refreshes : 0.0;
  layer.backlog_max = static_cast<double>(drive.backlog_max);
  double indexed = 0;
  for (service::CrowdService* host : stack.hosts()) {
    tcrowd::SegmentedAnswerStore::Stats ss = host->engine().store_stats();
    layer.seals += static_cast<double>(ss.sealed_segments);
    layer.compactions += static_cast<double>(ss.compactions);
    indexed += static_cast<double>(ss.sealed_entries + ss.compacted_entries);
  }
  layer.reindex_ratio = indexed / static_cast<double>(live);
  return layer;
}

/// Folds a traced repetition's spans into the run and its layer figures.
void AddSpans(std::vector<Span> spans, const Drive& drive, LayerRep* layer,
              Run* run) {
  std::vector<double> self = SelfTimesUs(spans);
  double refresh_ns = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur_ns = static_cast<double>(s.end_ns - s.start_ns);
    const int l = static_cast<int>(s.layer), o = static_cast<int>(s.op);
    run->self_us[l][o].push_back(self[i]);
    run->total_us[l][o].push_back(dur_ns * 1e-3);
    if (s.layer == Layer::kAssignment && s.op == Op::kSelect) {
      layer->selects += 1;
    }
    if (s.layer == Layer::kAssignment && s.op == Op::kRefresh) {
      layer->refreshes += 1;
      refresh_ns += dur_ns;
      run->refresh_ms.push_back(dur_ns * 1e-6);
    }
    if (s.layer == Layer::kShard) {
      layer->shard_calls_per_arrival[o] += 1;
      if (s.op == Op::kGather && s.parent != 0 &&
          spans[s.parent - 1].op == Op::kFinalize) {
        layer->gather_ms += dur_ns * 1e-6;
      }
    }
  }
  for (double& calls : layer->shard_calls_per_arrival) {
    calls /= static_cast<double>(drive.arrivals);
  }
  layer->refresh_busy_share = refresh_ns * 1e-9 / drive.seconds;
  run->spans.push_back(std::move(spans));
}

/// Persistence read side: a cold restore of shard 0 from the directory the
/// repetition wrote, as a restarted shard daemon does it. Returns the
/// restore time in ms; sets *error when the restored log is not the served
/// one.
double RestoreShard0(const Workload& w, uint64_t seed, const fs::path& ckpt,
                     int64_t served, std::string* error) {
  tools::ServingOptions opt = OptionsFor(w, seed);
  sim::SynthesizedWorld world = tools::BuildServingWorld(opt);
  service::ServiceConfig config = tools::MakeServingConfig(opt);
  config.inference.checkpoint.directory = ckpt.string();
  const std::vector<service::ShardRange> ranges =
      service::PartitionRows(world.dataset.num_rows(), w.shards);
  int64_t t0 = NowNs();
  service::CrowdService restored(
      world.dataset.schema, ranges[0].num_rows(),
      tools::MakeServingPolicy(w.policy, seed),
      service::DeriveShardServiceConfig(config, world.dataset.schema,
                                        world.dataset.num_rows(), ranges[0],
                                        w.shards, 0));
  double ms = static_cast<double>(NowNs() - t0) * 1e-6;
  if (!restored.checkpoint_status().ok() ||
      restored.restored_answers() != served) {
    *error = "shard 0 restored " + std::to_string(restored.restored_answers()) +
             " answers, served " + std::to_string(served);
  }
  return ms;
}

/// One repetition: boot, drive to drain, Finalize over the wire, then the
/// correctness gates and the paper-faithful fit off the clock.
void RunRep(const Workload& w, uint64_t seed, bool traced,
            const fs::path& work_dir, Run* run) {
  const size_t failures_before = run->failures.size();
  auto fail = [&](const std::string& what) {
    run->failures.push_back(
        "seed " + std::to_string(seed) + (traced ? " traced: " : ": ") + what);
  };
  const fs::path ckpt = work_dir / ("ckpt-" + std::to_string(getpid()) + "-" +
                                    std::to_string(run->reps));
  fs::remove_all(ckpt);
  ++run->reps;

  std::unique_ptr<Stack> stack;
  std::vector<net::Client> clients;
  double setup = Boot(w, seed, w.shards > 0 ? ckpt.string() : "", &stack,
                      &clients, run);
  if (setup < 0.0) return;
  run->setup_s.push_back(setup);

  GlobalTracer().set_enabled(traced);
  Drive drive;
  bool drove = DriveArrivals(w, seed, stack.get(), &clients, traced, run,
                             &drive);
  std::vector<service::ServiceStats> host_stats;
  int64_t engine_refreshes = 0;
  for (service::CrowdService* host : stack->hosts()) {
    host_stats.push_back(host->Stats());
    engine_refreshes += host->engine().refresh_count();
  }
  net::FinalizeResponse fin;
  double finalize_s = 0.0;
  if (drove) {
    int64_t f0 = NowNs();
    Status st;
    {
      ScopedSpan span(Layer::kClient, Op::kFinalize);
      st = clients[0].Finalize(net::FinalizeRequest{}, &fin);
    }
    finalize_s = Seconds(NowNs() - f0);
    drove = Track(run, st, fin.status == net::WireStatus::kOk, "finalize");
  }
  GlobalTracer().set_enabled(false);
  // Peak memory of booting and serving one stack through Finalize; later
  // repetitions would add the allocator's retained memory to it.
  if (run->peak_rss_mb == 0.0) run->peak_rss_mb = PeakRssMb();
  std::vector<Span> spans = GlobalTracer().TakeSpans();
  run->arrivals += drive.arrivals;
  if (!drove) {
    fail("drive/finalize failed");
    return;
  }

  // ---- Correctness gates (off the clock).
  // Copied: the paper fit below runs after the stack is torn down.
  const tcrowd::Schema schema = stack->world().dataset.schema;
  const int rows = stack->world().dataset.num_rows();
  const int64_t budget = static_cast<int64_t>(w.target) * rows * w.cols;
  const int64_t live = drive.accepted - drive.retracted;
  if (live != budget) {
    fail("accepted - retracted = " + std::to_string(live) + ", budget " +
         std::to_string(budget));
  }
  net::StatsResponse stats;
  Status st = clients[0].Stats(net::StatsRequest{}, &stats);
  if (!st.ok() || stats.budget_spent != budget ||
      stats.budget_remaining != 0) {
    fail("server budget not spent exactly at drain");
  }
  if (static_cast<int64_t>(fin.answer_count) != live) {
    fail("Finalize answer_count " + std::to_string(fin.answer_count) +
         " != live answers " + std::to_string(live));
  }
  // Finalize == batch fit; behind the router also N-shard == 1-shard, as
  // the reference is one engine's fit over the merged global log.
  std::vector<Answer> log = stack->front().inner()->GatherAnswerLog();
  if (static_cast<int64_t>(log.size()) != live) {
    fail("gathered log holds " + std::to_string(log.size()) + " answers");
  }
  uint64_t reference =
      BatchFitDigest(schema, rows, log, stack->config().inference);
  if (reference != fin.digest) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "Finalize digest %016" PRIx64 " != batch fit %016" PRIx64,
                  fin.digest, reference);
    fail(buf);
  }
  const tcrowd::InferenceResult truths = stack->front().last_finalize();
  if (tcrowd::TruthDigest(truths.estimated_truth) != fin.digest) {
    fail("wire digest differs from the served Finalize result");
  }
  const tcrowd::Table& truth = stack->world().dataset.truth;
  double error_rate = tcrowd::Metrics::ErrorRate(truth, truths.estimated_truth);
  double mnad = tcrowd::Metrics::Mnad(truth, truths.estimated_truth);

  LayerRep layer;
  if (traced) {
    layer = ReadLayers(*stack, drive, host_stats, engine_refreshes, live);
    AddSpans(std::move(spans), drive, &layer, run);
  }
  for (net::Client& c : clients) c.Close();
  stack.reset();

  if (w.shards > 0) {
    DirStats(ckpt, &layer.snapshot_bytes, &layer.snapshot_files);
    std::string error;
    layer.restore_ms =
        RestoreShard0(w, seed, ckpt, host_stats[0].budget_spent, &error);
    if (!error.empty()) fail(error);
  }
  fs::remove_all(ckpt);

  PaperFit fit = RunPaperFit(schema, rows, log);

  if (run->failures.size() != failures_before) return;
  if (traced) {
    run->drive_traced_s.push_back(drive.seconds);
    run->layers.push_back(layer);
    run->em_iterations.push_back(fit.iterations);
    run->em_converged.push_back(fit.converged ? 1.0 : 0.0);
    run->em_ns_per_answer_iter.push_back(
        fit.seconds * 1e9 / (static_cast<double>(live) * fit.iterations));
    return;
  }
  std::printf("  rep seed %" PRIu64 ": drive %.3f s, %" PRId64
              " arrivals, finalize %.3f s, fit %.3f s, error %.4f, mnad %.4f\n",
              seed, drive.seconds, drive.arrivals, finalize_s, fit.seconds,
              error_rate, mnad);
  run->drive_untraced_s.push_back(drive.seconds);
  run->lease_p50.push_back(Quantile(drive.lease_ms, 0.5));
  run->lease_p99.push_back(Quantile(drive.lease_ms, 0.99));
  run->submit_p50.push_back(Quantile(drive.submit_ms, 0.5));
  run->submit_p99.push_back(Quantile(drive.submit_ms, 0.99));
  run->leases += drive.lease_ms.size();
  run->submits += drive.submit_ms.size();
  run->answers_per_s.push_back(static_cast<double>(live) / drive.seconds);
  run->finalize_s.push_back(finalize_s);
  run->fit_s.push_back(fit.seconds);
  run->error_rate.push_back(error_rate);
  run->mnad.push_back(mnad);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

std::string Json(bool correct, const Run& run,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.ops);
  out += ", \"failed\": " + std::to_string(run.failed_ops);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

std::vector<Metric> EndToEndMetrics(const Run& run) {
  auto n = [](const std::vector<double>& v) { return v.size(); };
  auto scored = [](const std::vector<double>& v) {
    return std::vector<double>(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(
                                   std::min<size_t>(v.size(), kScoredReps)));
  };
  const std::vector<double> error_rate = scored(run.error_rate);
  const std::vector<double> mnad = scored(run.mnad);
  return {
      {"setup_s", Median(run.setup_s), "s", n(run.setup_s)},
      // Each repetition's percentile, median over repetitions: one noisy
      // stretch of a shared machine then moves one sample, not the pool.
      {"lease_p50_ms", Median(run.lease_p50), "ms", run.leases},
      {"lease_p99_ms", Median(run.lease_p99), "ms", run.leases},
      {"submit_p50_ms", Median(run.submit_p50), "ms", run.submits},
      {"submit_p99_ms", Median(run.submit_p99), "ms", run.submits},
      {"answers_per_s", Median(run.answers_per_s), "1/s", n(run.answers_per_s)},
      {"finalize_s", Median(run.finalize_s), "s", n(run.finalize_s)},
      {"fit_s", Median(run.fit_s), "s", n(run.fit_s)},
      // Every repetition scores the same number of cells, so the mean is
      // the pooled rate over all of them.
      {"truth_error_rate", Mean(error_rate), "ratio", n(error_rate)},
      {"truth_mnad", Mean(mnad), "ratio", n(mnad)},
      {"peak_rss_mb", run.peak_rss_mb, "MB", 1},
  };
}

std::vector<Metric> PerLayerMetrics(const Run& run) {
  std::vector<Metric> m;
  auto layer_median = [&](double LayerRep::*field) {
    std::vector<double> v;
    for (const LayerRep& l : run.layers) v.push_back(l.*field);
    return Median(v);
  };
  auto self = [&](Layer layer, Op op) -> const std::vector<double>& {
    return run.self_us[static_cast<int>(layer)][static_cast<int>(op)];
  };
  const size_t reps = run.layers.size();
  const std::vector<double>& select = self(Layer::kAssignment, Op::kSelect);
  m.push_back({"assignment.select_us.p50", Quantile(select, 0.5), "us",
               select.size()});
  m.push_back({"assignment.select_us.p99", Quantile(select, 0.99), "us",
               select.size()});
  m.push_back({"assignment.selects", layer_median(&LayerRep::selects), "count",
               reps});
  m.push_back({"assignment.refresh_ms.p50", Quantile(run.refresh_ms, 0.5),
               "ms", run.refresh_ms.size()});
  m.push_back({"assignment.refresh_ms.p99", Quantile(run.refresh_ms, 0.99),
               "ms", run.refresh_ms.size()});
  m.push_back({"assignment.refreshes", layer_median(&LayerRep::refreshes),
               "count", reps});
  m.push_back({"assignment.refresh_busy_share",
               layer_median(&LayerRep::refresh_busy_share), "ratio", reps});
  for (Op op : {Op::kHello, Op::kLease, Op::kSubmit, Op::kBye}) {
    const std::vector<double>& v = self(Layer::kService, op);
    std::string base = std::string("service.") + OpName(op) + "_us";
    m.push_back({base + ".p50", Quantile(v, 0.5), "us", v.size()});
    m.push_back({base + ".p99", Quantile(v, 0.99), "us", v.size()});
  }
  m.push_back({"service.backfill_ratio",
               layer_median(&LayerRep::backfill_ratio), "ratio", reps});
  for (Op op : {Op::kHello, Op::kLease, Op::kSubmit, Op::kBye}) {
    const std::vector<double>& v = self(Layer::kClient, op);
    m.push_back({std::string("net.self_us.") + OpName(op) + ".p50",
                 Quantile(v, 0.5), "us", v.size()});
  }
  m.push_back({"net.frames_per_arrival",
               layer_median(&LayerRep::frames_per_arrival), "count", reps});
  m.push_back({"net.write_queue_peak", layer_median(&LayerRep::write_queue_peak),
               "bytes", reps});
  m.push_back({"net.retry_later", layer_median(&LayerRep::retry_later), "count",
               reps});
  m.push_back({"net.shed_ratio", layer_median(&LayerRep::shed_ratio), "ratio",
               reps});
  for (Op op : {Op::kHello, Op::kLease, Op::kSubmit, Op::kBye, Op::kDrained}) {
    std::vector<double> v;
    for (const LayerRep& l : run.layers) {
      v.push_back(l.shard_calls_per_arrival[static_cast<int>(op)]);
    }
    m.push_back({std::string("shard.calls_per_arrival.") + OpName(op),
                 Median(v), "count", reps});
  }
  m.push_back({"shard.answer_skew", layer_median(&LayerRep::answer_skew),
               "ratio", reps});
  m.push_back({"engine.refreshes", layer_median(&LayerRep::engine_refreshes),
               "count", reps});
  m.push_back({"engine.answers_per_refresh",
               layer_median(&LayerRep::answers_per_refresh), "count", reps});
  m.push_back({"engine.backlog_max", layer_median(&LayerRep::backlog_max),
               "count", reps});
  m.push_back({"store.seals", layer_median(&LayerRep::seals), "count", reps});
  m.push_back({"store.compactions", layer_median(&LayerRep::compactions),
               "count", reps});
  m.push_back({"store.reindex_ratio", layer_median(&LayerRep::reindex_ratio),
               "ratio", reps});
  m.push_back({"snapshot.bytes", layer_median(&LayerRep::snapshot_bytes),
               "bytes", reps});
  m.push_back({"snapshot.files", layer_median(&LayerRep::snapshot_files),
               "count", reps});
  m.push_back({"em.iterations", Median(run.em_iterations), "count",
               run.em_iterations.size()});
  m.push_back({"em.converged", Median(run.em_converged), "ratio",
               run.em_converged.size()});
  m.push_back({"em.ns_per_answer_iter", Median(run.em_ns_per_answer_iter),
               "ns", run.em_ns_per_answer_iter.size()});
  std::vector<double> overhead;
  for (size_t i = 0; i < run.drive_traced_s.size() &&
                     i < run.drive_untraced_s.size();
       ++i) {
    overhead.push_back(run.drive_traced_s[i] / run.drive_untraced_s[i] - 1.0);
  }
  m.push_back({"trace.overhead_share", Median(overhead), "ratio",
               overhead.size()});
  return m;
}

/// Layer metrics that only a sharded, checkpointing workload has; printed,
/// not part of the JSON (every workload's traced run reports the same set).
std::vector<Metric> ShardTierMetrics(const Run& run) {
  std::vector<Metric> m;
  const size_t reps = run.layers.size();
  for (Op op : {Op::kHello, Op::kLease, Op::kSubmit, Op::kRetract, Op::kBye,
                Op::kAdmission, Op::kStats, Op::kDrained, Op::kGather}) {
    const auto& rtt =
        run.total_us[static_cast<int>(Layer::kShard)][static_cast<int>(op)];
    if (rtt.empty()) continue;
    std::string base = std::string("shard.rtt_us.") + OpName(op);
    m.push_back({base + ".p50", Quantile(rtt, 0.5), "us", rtt.size()});
    m.push_back({base + ".p99", Quantile(rtt, 0.99), "us", rtt.size()});
  }
  for (Op op : {Op::kHello, Op::kLease, Op::kSubmit, Op::kRetract, Op::kBye,
                Op::kFinalize, Op::kDrained}) {
    const auto& v =
        run.self_us[static_cast<int>(Layer::kRouter)][static_cast<int>(op)];
    if (v.empty()) continue;
    m.push_back({std::string("router.self_us.") + OpName(op) + ".p50",
                 Quantile(v, 0.5), "us", v.size()});
  }
  std::vector<double> gather, restore;
  for (const LayerRep& l : run.layers) {
    gather.push_back(l.gather_ms);
    restore.push_back(l.restore_ms);
  }
  m.push_back({"router.gather_ms", Median(gather), "ms", reps});
  m.push_back({"snapshot.restore_ms", Median(restore), "ms", reps});
  const auto& retract =
      run.self_us[static_cast<int>(Layer::kService)][static_cast<int>(Op::kRetract)];
  m.push_back({"service.retract_us.p50", Quantile(retract, 0.5), "us",
               retract.size()});
  return m;
}

/// Per-layer self time over the traced repetitions: where a request's time
/// went, layer by layer.
void PrintLayerTable(const Run& run) {
  double traced_s = 0.0;
  for (double s : run.drive_traced_s) traced_s += s;
  const double reps = std::max<double>(1.0, run.drive_traced_s.size());
  std::printf("per-layer self time (traced drive, %zu repetitions, %.3f s)\n",
              run.drive_traced_s.size(), traced_s);
  std::printf("  %-22s %10s %12s %8s %12s %12s\n", "layer.call", "calls/rep",
              "self ms/rep", "share", "self p50 us", "self p99 us");
  for (int l = 0; l < kNumLayers; ++l) {
    for (int o = 0; o < kNumOps; ++o) {
      const std::vector<double>& v = run.self_us[l][o];
      if (v.empty()) continue;
      double sum_us = 0.0;
      for (double x : v) sum_us += x;
      std::string name = std::string(LayerName(static_cast<Layer>(l))) + "." +
                         OpName(static_cast<Op>(o));
      std::printf("  %-22s %10.1f %12.3f %7.2f%% %12.2f %12.2f\n",
                  name.c_str(), static_cast<double>(v.size()) / reps,
                  sum_us * 1e-3 / reps,
                  traced_s > 0 ? 100.0 * sum_us * 1e-6 / traced_s : 0.0,
                  Quantile(v, 0.5), Quantile(v, 0.99));
    }
  }
}

/// Writes the traced repetitions' spans (kept in memory until now).
void WriteSpans(const Run& run, const fs::path& path) {
  std::ofstream out(path);
  out << "rep,id,parent,layer,op,start_ns,end_ns\n";
  for (size_t r = 0; r < run.spans.size(); ++r) {
    for (size_t i = 0; i < run.spans[r].size(); ++i) {
      const Span& s = run.spans[r][i];
      out << r << ',' << i + 1 << ',' << s.parent << ',' << LayerName(s.layer)
          << ',' << OpName(s.op) << ',' << s.start_ns << ',' << s.end_ns
          << '\n';
    }
  }
  std::printf("spans: %s\n", path.string().c_str());
}

int RunBenchmark(const Workload& w, uint64_t seed, double seconds, bool trace,
                 const fs::path& work_dir) {
  Run run;
  std::printf("workload %s, seed %" PRIu64 ", %s run, >= %.0f s\n", w.name,
              seed, trace ? "traced" : "untraced", seconds);
  // Set-up only: boots whose stacks are torn down right away.
  for (int i = 0; i < kSetupBoots; ++i) {
    const fs::path ckpt = work_dir / ("boot-" + std::to_string(getpid()));
    fs::remove_all(ckpt);
    std::unique_ptr<Stack> stack;
    std::vector<net::Client> clients;
    double s = Boot(w, seed, w.shards > 0 ? ckpt.string() : "", &stack,
                    &clients, &run);
    clients.clear();
    stack.reset();
    fs::remove_all(ckpt);
    if (s < 0.0) break;
    run.setup_s.push_back(s);
  }
  // A traced run pairs each traced repetition with an untraced one of the
  // same seed: their drive times give the tracing overhead.
  const int64_t start = NowNs();
  const uint64_t min_reps = trace ? 1 : kScoredReps;
  for (uint64_t r = 0; run.failures.empty() &&
                       (r < min_reps || Seconds(NowNs() - start) < seconds);
       ++r) {
    const uint64_t rep_seed = seed + r * kRepSeedStride;
    RunRep(w, rep_seed, false, work_dir, &run);
    if (trace) RunRep(w, rep_seed, true, work_dir, &run);
  }

  const bool correct = run.failures.empty();
  for (const std::string& f : run.failures) {
    std::printf("GATE FAILED: %s\n", f.c_str());
  }
  std::printf("repetitions %" PRId64 ", arrivals %" PRId64
              ", client ops %" PRId64 ", failed %" PRId64
              ", ops_failed_ratio %.6g\n",
              run.reps, run.arrivals, run.ops, run.failed_ops,
              run.ops > 0 ? static_cast<double>(run.failed_ops) / run.ops : 0.0);
  std::vector<Metric> metrics;
  if (trace) {
    PrintLayerTable(run);
    metrics = PerLayerMetrics(run);
    PrintMetrics("per-layer metrics", metrics);
    if (w.shards > 0) PrintMetrics("shard tier", ShardTierMetrics(run));
    WriteSpans(run, work_dir / (std::string("spans-") + w.name + ".csv"));
  } else {
    metrics = EndToEndMetrics(run);
    PrintMetrics("end-to-end metrics", metrics);
  }
  std::printf("%s\n", Json(correct, run, metrics).c_str());
  return correct ? 0 : 1;
}

/// One repetition at exactly `seed`, untraced; prints its Finalize digest.
int RunParity(const Workload& w, uint64_t seed, const fs::path& work_dir) {
  Run run;
  const fs::path ckpt = work_dir / ("parity-" + std::to_string(getpid()));
  std::unique_ptr<Stack> stack;
  std::vector<net::Client> clients;
  if (Boot(w, seed, w.shards > 0 ? ckpt.string() : "", &stack, &clients,
           &run) < 0.0) {
    std::printf("boot failed: %s\n", run.failures.front().c_str());
    return 1;
  }
  Drive drive;
  net::FinalizeResponse fin;
  bool ok = DriveArrivals(w, seed, stack.get(), &clients, false, &run,
                          &drive) &&
            clients[0].Finalize(net::FinalizeRequest{}, &fin).ok();
  clients.clear();
  stack.reset();
  fs::remove_all(ckpt);
  if (!ok) {
    std::printf("drive failed\n");
    return 1;
  }
  std::printf("finalize: digest %016" PRIx64 " over %" PRIu64 " answers\n",
              fin.digest, fin.answer_count);
  return 0;
}

int Main(int argc, const char* const* argv) {
  tcrowd::FlagParser flags;
  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 2;
  }
  if (flags.GetBool("list-workloads", false)) {
    for (const Workload& candidate : kWorkloads) {
      std::printf("%s\n", candidate.name);
    }
    return 0;
  }
  const std::string name = flags.GetString("workload");
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (name == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown --workload=%s\n", name.c_str());
    return 2;
  }
  if (flags.GetBool("daemon-flags", false)) {
    std::printf("--rows=%d --cols=%d --workers=%d --policy=%s --target=%d\n",
                w->rows, w->cols, w->workers, w->policy, w->target);
    return 0;
  }
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const fs::path work_dir =
      flags.GetString("work-dir", ".bench_build/perfbench-work");
  std::error_code ec;
  fs::create_directories(work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 work_dir.string().c_str());
    return 2;
  }
  if (flags.GetBool("parity", false)) return RunParity(*w, seed, work_dir);
  return RunBenchmark(*w, seed, flags.GetDouble("seconds", 10.0),
                      flags.GetInt("trace", 0) != 0, work_dir);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
