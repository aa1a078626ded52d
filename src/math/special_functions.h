#ifndef TCROWD_MATH_SPECIAL_FUNCTIONS_H_
#define TCROWD_MATH_SPECIAL_FUNCTIONS_H_

#include <vector>

namespace tcrowd::math {

/// Smallest probability the model will ever emit. Probabilities are clamped
/// to [kProbFloor, 1 - kProbFloor] before taking logs so that a single
/// adversarial answer can never produce -inf log-likelihood.
inline constexpr double kProbFloor = 1e-12;

/// Clamps p into [kProbFloor, 1 - kProbFloor].
double ClampProb(double p);

/// log(p) with the probability floor applied.
double SafeLog(double p);

/// Gauss error function erf(x); thin wrapper kept for symmetry with
/// ErfDerivative and so the model code reads like the paper's equations.
double Erf(double x);

/// d/dx erf(x) = 2/sqrt(pi) * exp(-x^2).
double ErfDerivative(double x);

/// Logistic sigmoid 1 / (1 + exp(-x)), numerically stable for large |x|.
double Sigmoid(double x);

/// log(sum_i exp(v_i)) computed stably; returns -inf for an empty vector.
double LogSumExp(const std::vector<double>& v);

/// Normalizes a vector of log-weights into a probability vector in place.
/// Entries are exponentiated relative to the max to avoid overflow. Returns
/// the log-normalizer LogSumExp(log_weights) of the input.
double SoftmaxInPlace(std::vector<double>* log_weights);

/// Quantile (inverse CDF) of the chi-square distribution with `df` degrees
/// of freedom at probability `p`, via the Wilson-Hilferty cube approximation.
/// Used by the CATD baseline's confidence-interval weights. df >= 1.
double ChiSquareQuantile(double p, double df);

/// Quantile of the standard normal distribution (Acklam's rational
/// approximation, |error| < 1.2e-9).
double NormalQuantile(double p);

}  // namespace tcrowd::math

#endif  // TCROWD_MATH_SPECIAL_FUNCTIONS_H_
