#ifndef TCROWD_BENCH_BENCH_UTIL_H_
#define TCROWD_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "inference/catd.h"
#include "inference/crh.h"
#include "inference/dawid_skene.h"
#include "inference/glad.h"
#include "inference/gtm.h"
#include "inference/majority_voting.h"
#include "inference/median_inference.h"
#include "inference/tcrowd_model.h"
#include "inference/zencrowd.h"
#include "platform/metrics.h"
#include "simulation/dataset_synthesizer.h"

namespace tcrowd::bench {

/// One truth-inference entrant of Table 7.
struct MethodEntry {
  std::string label;
  std::function<std::unique_ptr<TruthInference>(const Schema&)> make;
  bool reports_error_rate;
  bool reports_mnad;
};

/// The Table 7 line-up, in the paper's order.
inline std::vector<MethodEntry> Table7Methods() {
  auto wrap = [](TruthInference* p) {
    return std::unique_ptr<TruthInference>(p);
  };
  return {
      {"T-Crowd", [wrap](const Schema&) { return wrap(new TCrowdModel()); },
       true, true},
      {"CRH", [wrap](const Schema&) { return wrap(new Crh()); }, true, true},
      {"CATD", [wrap](const Schema&) { return wrap(new Catd()); }, true, true},
      {"Maj. Voting",
       [wrap](const Schema&) { return wrap(new MajorityVoting()); }, true,
       false},
      {"EM", [wrap](const Schema&) { return wrap(new DawidSkene()); }, true,
       false},
      {"GLAD", [wrap](const Schema&) { return wrap(new Glad()); }, true,
       false},
      {"Zencrowd", [wrap](const Schema&) { return wrap(new ZenCrowd()); },
       true, false},
      {"TC-onlyCate",
       [wrap](const Schema&) {
         return wrap(new TCrowdModel(TCrowdModel::OnlyCategorical()));
       },
       true, false},
      {"Median", [wrap](const Schema&) { return wrap(new MedianInference()); },
       false, true},
      {"GTM", [wrap](const Schema&) { return wrap(new Gtm()); }, false, true},
      {"TC-onlyCont",
       [wrap](const Schema&) {
         return wrap(new TCrowdModel(TCrowdModel::OnlyContinuous()));
       },
       false, true},
  };
}

/// Mean of `runs` evaluations of one method over freshly synthesized
/// datasets (seeds seed0, seed0+1, ...). Returns {error_rate, mnad};
/// -1 marks a metric the method does not report.
struct EvalResult {
  double error_rate = -1.0;
  double mnad = -1.0;
};

inline EvalResult EvaluateOnDataset(const MethodEntry& method,
                                    sim::PaperDataset which, int runs,
                                    uint64_t seed0) {
  double er = 0.0, mnad = 0.0;
  for (int r = 0; r < runs; ++r) {
    sim::SynthesizerOptions opt;
    opt.seed = seed0 + r;
    auto world = sim::SynthesizeDataset(which, opt);
    auto model = method.make(world.dataset.schema);
    InferenceResult result =
        model->Infer(world.dataset.schema, world.dataset.answers);
    er += Metrics::ErrorRate(world.dataset.truth, result.estimated_truth);
    mnad += Metrics::Mnad(world.dataset.truth, result.estimated_truth);
  }
  EvalResult out;
  if (method.reports_error_rate) out.error_rate = er / runs;
  if (method.reports_mnad) out.mnad = mnad / runs;
  return out;
}

}  // namespace tcrowd::bench

#endif  // TCROWD_BENCH_BENCH_UTIL_H_
