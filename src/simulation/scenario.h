#ifndef TCROWD_SIMULATION_SCENARIO_H_
#define TCROWD_SIMULATION_SCENARIO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/crowd_service.h"
#include "simulation/arrival_model.h"
#include "simulation/crowd_simulator.h"
#include "simulation/worker_behavior.h"

namespace tcrowd::sim {

/// One named adversarial/dynamic scenario: a worker behavior composed with
/// an arrival model, plus the retraction pressure the run applies. Specs
/// are value types (behaviors/arrivals are shared immutable singletons) so
/// the registry can hand out copies.
struct ScenarioSpec {
  std::string name;
  std::string description;
  std::shared_ptr<const WorkerBehavior> behavior;
  std::shared_ptr<const ArrivalModel> arrivals;
  /// Probability an accepted answer is later disavowed through
  /// CrowdService::RetractAnswer.
  double retract_prob = 0.0;
  /// How many accepted answers later the disavowal lands (the retraction
  /// reaches a sealed answer only if the answer had time to be sealed).
  int retract_delay = 24;
};

/// One point of the quality-vs-budget curve: both aggregators evaluated
/// against ground truth after `budget` answers were spent (net of
/// retraction refunds).
struct QualityPoint {
  int64_t budget = 0;
  double tcrowd_error_rate = 0.0;
  double tcrowd_mnad = 0.0;
  double mv_error_rate = 0.0;
  double mv_mnad = 0.0;
};

struct ScenarioOptions {
  /// Curve resolution: quality is measured at this many evenly spaced
  /// budget checkpoints (plus wherever the run actually stops).
  int checkpoints = 8;
  /// Tasks leased per arriving worker.
  int tasks_per_request = 6;
  /// Arrival hard stop (the run normally ends when the service drains).
  int64_t max_arrivals = 1000000;
  /// Crash drill: > 0 stops the run once this many answers were accepted
  /// (gross, before retraction refunds), leaving the service mid-flight.
  int64_t stop_after_answers = 0;
  uint64_t seed = 17;
};

struct ScenarioReport {
  std::string scenario;
  int64_t arrivals = 0;
  /// Gross accepted answers (retracted ones included).
  int64_t answers_accepted = 0;
  int64_t answers_retracted = 0;
  int64_t rejected = 0;
  /// Scheduled retractions that found no live answer (the cell was
  /// re-answered and re-retracted in between); diagnostics only.
  int64_t retraction_misses = 0;
  bool stopped_early = false;
  std::vector<QualityPoint> curve;
  service::ServiceStats final_stats;
};

/// Replays one scenario against a CrowdService, single-threaded and
/// deterministic (one seeded stream drives arrivals, behaviors, and
/// retraction sampling), recording the TCrowd-vs-MajorityVoting
/// quality-vs-budget curve at evenly spaced budget checkpoints. Both
/// aggregators are evaluated as full batch fits over the engine's live
/// answer snapshot, so the curve compares methods, not refresh schedules.
class ScenarioRunner {
 public:
  /// All pointers unowned; `crowd`'s truth table supplies ground truth for
  /// the curve only — neither aggregator ever sees it.
  ScenarioRunner(ScenarioSpec spec, const CrowdSimulator* crowd,
                 service::CrowdService* service, ScenarioOptions options);

  /// Drives the service until it drains (or hits max_arrivals /
  /// stop_after_answers). May be called once per runner.
  ScenarioReport Run();

 private:
  ScenarioSpec spec_;
  const CrowdSimulator* const crowd_;
  service::CrowdService* const service_;
  ScenarioOptions options_;
};

/// Names of every registered scenario, registry order.
std::vector<std::string> ScenarioNames();
/// Looks a scenario up by name; false (and *spec untouched) when unknown.
bool FindScenario(const std::string& name, ScenarioSpec* spec);

/// The curve as CSV ("scenario,budget,tcrowd_error_rate,tcrowd_mnad,
/// mv_error_rate,mv_mnad" header + one row per point).
std::string FormatQualityCurveCsv(const ScenarioReport& report);

}  // namespace tcrowd::sim

#endif  // TCROWD_SIMULATION_SCENARIO_H_
