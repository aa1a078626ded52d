#include "math/special_functions.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace tcrowd::math {

double ClampProb(double p) {
  return std::clamp(p, kProbFloor, 1.0 - kProbFloor);
}

double SafeLog(double p) { return std::log(ClampProb(p)); }

double Erf(double x) { return std::erf(x); }

double ErfDerivative(double x) {
  static const double kTwoOverSqrtPi = 2.0 / std::sqrt(M_PI);
  return kTwoOverSqrtPi * std::exp(-x * x);
}

double Sigmoid(double x) {
  if (x >= 0.0) {
    double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

double LogSumExp(const std::vector<double>& v) {
  if (v.empty()) return -std::numeric_limits<double>::infinity();
  double mx = *std::max_element(v.begin(), v.end());
  if (!std::isfinite(mx)) return mx;
  double sum = 0.0;
  for (double x : v) sum += std::exp(x - mx);
  return mx + std::log(sum);
}

double SoftmaxInPlace(std::vector<double>* log_weights) {
  double lse = LogSumExp(*log_weights);
  if (log_weights->empty()) return lse;
  double total = 0.0;
  for (double& x : *log_weights) {
    x = std::exp(x - lse);
    total += x;
  }
  // Guard against pathological inputs (all -inf): fall back to uniform.
  if (!(total > 0.0) || !std::isfinite(total)) {
    double u = 1.0 / static_cast<double>(log_weights->size());
    for (double& x : *log_weights) x = u;
    return lse;
  }
  for (double& x : *log_weights) x /= total;
  return lse;
}

double ChiSquareQuantile(double p, double df) {
  TCROWD_CHECK(df >= 1.0) << "chi-square df must be >= 1, got " << df;
  p = std::clamp(p, 1e-10, 1.0 - 1e-10);
  // Wilson-Hilferty: if X ~ chi2(k) then (X/k)^(1/3) is approximately
  // normal with mean 1 - 2/(9k) and variance 2/(9k).
  double z = NormalQuantile(p);
  double a = 2.0 / (9.0 * df);
  double cube = 1.0 - a + z * std::sqrt(a);
  return df * cube * cube * cube;
}

double NormalQuantile(double p) {
  p = std::clamp(p, 1e-300, 1.0 - 1e-16);
  // Acklam's algorithm.
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1.0 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > phigh) {
    q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  q = p - 0.5;
  r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace tcrowd::math
