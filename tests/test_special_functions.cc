#include "math/special_functions.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tcrowd::math {
namespace {

TEST(ClampProb, ClampsIntoOpenUnitInterval) {
  EXPECT_GT(ClampProb(0.0), 0.0);
  EXPECT_LT(ClampProb(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ClampProb(0.4), 0.4);
  EXPECT_GT(ClampProb(-5.0), 0.0);
  EXPECT_LT(ClampProb(5.0), 1.0);
}

TEST(SafeLog, FiniteEverywhere) {
  EXPECT_TRUE(std::isfinite(SafeLog(0.0)));
  EXPECT_TRUE(std::isfinite(SafeLog(-1.0)));
  EXPECT_DOUBLE_EQ(SafeLog(0.5), std::log(0.5));
}

TEST(Erf, MatchesKnownValues) {
  EXPECT_NEAR(Erf(0.0), 0.0, 1e-12);
  EXPECT_NEAR(Erf(1.0), 0.8427007929, 1e-9);
  EXPECT_NEAR(Erf(-1.0), -0.8427007929, 1e-9);
  EXPECT_NEAR(Erf(3.0), 0.9999779095, 1e-9);
}

TEST(ErfDerivative, MatchesFiniteDifference) {
  for (double x : {-2.0, -0.5, 0.0, 0.7, 1.8}) {
    double h = 1e-6;
    double fd = (Erf(x + h) - Erf(x - h)) / (2 * h);
    EXPECT_NEAR(ErfDerivative(x), fd, 1e-6) << "x=" << x;
  }
}

TEST(Sigmoid, SymmetricAndBounded) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0) + Sigmoid(-2.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-100.0), 0.0, 1e-12);
  EXPECT_TRUE(std::isfinite(Sigmoid(-1000.0)));
  EXPECT_TRUE(std::isfinite(Sigmoid(1000.0)));
}

TEST(LogSumExp, MatchesDirectComputationForSmallValues) {
  std::vector<double> v = {0.1, 0.5, -0.3};
  double direct =
      std::log(std::exp(0.1) + std::exp(0.5) + std::exp(-0.3));
  EXPECT_NEAR(LogSumExp(v), direct, 1e-12);
}

TEST(LogSumExp, StableForLargeMagnitudes) {
  std::vector<double> v = {1000.0, 1000.0};
  EXPECT_NEAR(LogSumExp(v), 1000.0 + std::log(2.0), 1e-9);
  std::vector<double> w = {-1000.0, -1001.0};
  EXPECT_TRUE(std::isfinite(LogSumExp(w)));
}

TEST(LogSumExp, EmptyIsMinusInfinity) {
  EXPECT_TRUE(std::isinf(LogSumExp({})));
  EXPECT_LT(LogSumExp({}), 0.0);
}

TEST(Softmax, NormalizesAndOrdersCorrectly) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  SoftmaxInPlace(&v);
  double total = v[0] + v[1] + v[2];
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_LT(v[0], v[1]);
  EXPECT_LT(v[1], v[2]);
}

TEST(Softmax, ReturnsTheLogNormalizer) {
  std::vector<double> v = {1.0, 2.0, 3.0};
  double want = LogSumExp(v);
  EXPECT_EQ(SoftmaxInPlace(&v), want);
}

TEST(Softmax, HandlesExtremeLogits) {
  std::vector<double> v = {-10000.0, 0.0};
  SoftmaxInPlace(&v);
  EXPECT_NEAR(v[1], 1.0, 1e-9);
  EXPECT_NEAR(v[0], 0.0, 1e-9);
}

TEST(Softmax, AllMinusInfFallsBackToUniform) {
  double ninf = -std::numeric_limits<double>::infinity();
  std::vector<double> v = {ninf, ninf, ninf};
  SoftmaxInPlace(&v);
  for (double p : v) EXPECT_NEAR(p, 1.0 / 3.0, 1e-12);
}

TEST(NormalQuantile, MatchesKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.8413447), 1.0, 1e-4);
}

TEST(NormalQuantile, MonotoneInP) {
  double prev = NormalQuantile(0.01);
  for (double p = 0.05; p < 1.0; p += 0.05) {
    double q = NormalQuantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

TEST(ChiSquareQuantile, MedianNearDfMinusTwoThirds) {
  // chi2 median ~ df (1 - 2/(9 df))^3.
  for (double df : {1.0, 5.0, 20.0, 100.0}) {
    double med = ChiSquareQuantile(0.5, df);
    double expected = df * std::pow(1.0 - 2.0 / (9.0 * df), 3);
    EXPECT_NEAR(med, expected, 1e-9) << "df=" << df;
  }
}

TEST(ChiSquareQuantile, KnownUpperTailValues) {
  // chi2_{0.95}(10) = 18.307; Wilson-Hilferty is good to ~1%.
  EXPECT_NEAR(ChiSquareQuantile(0.95, 10), 18.307, 0.2);
  // chi2_{0.975}(1) = 5.024.
  EXPECT_NEAR(ChiSquareQuantile(0.975, 1), 5.024, 0.35);
  // chi2_{0.975}(50) = 71.42.
  EXPECT_NEAR(ChiSquareQuantile(0.975, 50), 71.42, 0.5);
}

TEST(ChiSquareQuantile, IncreasesWithDfAndP) {
  EXPECT_LT(ChiSquareQuantile(0.9, 5), ChiSquareQuantile(0.9, 10));
  EXPECT_LT(ChiSquareQuantile(0.5, 5), ChiSquareQuantile(0.9, 5));
}

}  // namespace
}  // namespace tcrowd::math
