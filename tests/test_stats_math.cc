#include "common/stats_math.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace dcs {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(LogChooseTest, SmallValuesExact) {
  EXPECT_NEAR(LogChoose(5, 2), std::log(10.0), 1e-12);
  EXPECT_NEAR(LogChoose(10, 0), 0.0, 1e-12);
  EXPECT_NEAR(LogChoose(10, 10), 0.0, 1e-12);
  EXPECT_EQ(LogChoose(5, 6), -kInf);
  EXPECT_EQ(LogChoose(5, -1), -kInf);
}

TEST(LogChooseTest, SymmetricInK) {
  EXPECT_NEAR(LogChoose(100, 30), LogChoose(100, 70), 1e-9);
}

TEST(LogSumExpTest, Basics) {
  EXPECT_NEAR(LogSumExp(std::log(2.0), std::log(3.0)), std::log(5.0), 1e-12);
  EXPECT_EQ(LogSumExp(-kInf, std::log(3.0)), std::log(3.0));
  EXPECT_EQ(LogSumExp(std::log(3.0), -kInf), std::log(3.0));
  // No overflow for large magnitudes.
  EXPECT_NEAR(LogSumExp(1000.0, 1000.0), 1000.0 + std::log(2.0), 1e-9);
}

TEST(LogBinomPmfTest, MatchesDirectComputation) {
  // Binomial(4, 0.5): pmf(2) = 6/16.
  EXPECT_NEAR(std::exp(LogBinomPmf(2, 4, 0.5)), 6.0 / 16.0, 1e-12);
  // Binomial(3, 0.2): pmf(1) = 3 * 0.2 * 0.64.
  EXPECT_NEAR(std::exp(LogBinomPmf(1, 3, 0.2)), 3 * 0.2 * 0.64, 1e-12);
  EXPECT_EQ(LogBinomPmf(-1, 5, 0.5), -kInf);
  EXPECT_EQ(LogBinomPmf(6, 5, 0.5), -kInf);
}

TEST(LogBinomPmfTest, DegenerateP) {
  EXPECT_EQ(LogBinomPmf(0, 5, 0.0), 0.0);
  EXPECT_EQ(LogBinomPmf(1, 5, 0.0), -kInf);
  EXPECT_EQ(LogBinomPmf(5, 5, 1.0), 0.0);
}

TEST(BinomCdfTest, SumsPmfExactly) {
  // Binomial(10, 0.3), check against direct summation.
  for (std::int64_t x = 0; x <= 10; ++x) {
    double direct = 0.0;
    for (std::int64_t k = 0; k <= x; ++k) {
      direct += std::exp(LogBinomPmf(k, 10, 0.3));
    }
    EXPECT_NEAR(BinomCdf(x, 10, 0.3), direct, 1e-12) << "x=" << x;
  }
}

TEST(BinomCdfTest, Boundaries) {
  EXPECT_EQ(BinomCdf(-1, 10, 0.5), 0.0);
  EXPECT_EQ(BinomCdf(10, 10, 0.5), 1.0);
  EXPECT_EQ(BinomCdf(3, 10, 0.0), 1.0);
}

TEST(BinomCdfTest, PaperExampleWeightScreen) {
  // Section V-A.2: 1 - binocdf(550, 1000, 0.5) ~ 0.00073.
  const double sf = 1.0 - BinomCdf(550, 1000, 0.5);
  EXPECT_NEAR(sf, 0.00073, 0.0001);
  // The paper quotes 1 - binocdf(7, 30, 0.55) = 0.988; the exact value is
  // 0.9996 (the paper rounded a slightly different intermediate), and either
  // way the detection probability clears its 0.95 bar.
  EXPECT_NEAR(1.0 - BinomCdf(7, 30, 0.55), 0.9996, 1e-3);
  EXPECT_GT(1.0 - BinomCdf(7, 30, 0.55), 0.988);
}

TEST(LogBinomSfTest, ComplementsCdf) {
  for (std::int64_t x : {0, 5, 9}) {
    const double sf = std::exp(LogBinomSf(x, 10, 0.4));
    EXPECT_NEAR(sf, 1.0 - BinomCdf(x, 10, 0.4), 1e-10);
  }
  EXPECT_EQ(LogBinomSf(10, 10, 0.4), -kInf);
  EXPECT_EQ(LogBinomSf(-1, 10, 0.4), 0.0);
}

TEST(LogBinomSfTest, DeepTailIsFiniteAndMonotone) {
  // P[Bin(45000, 1e-5) > d] for growing d: should decrease steeply and stay
  // finite in the log domain far past double underflow.
  double prev = 0.0;
  for (std::int64_t d = 0; d <= 60; d += 10) {
    const double log_sf = LogBinomSf(d, 45000, 1e-5);
    EXPECT_LT(log_sf, prev);
    EXPECT_TRUE(std::isfinite(log_sf));
    prev = log_sf;
  }
  // d = 60 tail is around e^-242: far below double range but finite here.
  EXPECT_LT(LogBinomSf(60, 45000, 1e-5), -200.0);
}

TEST(BinomQuantileTest, InvertsCdf) {
  for (double q : {0.01, 0.5, 0.9, 0.999}) {
    const std::int64_t x = BinomQuantile(q, 100, 0.3);
    EXPECT_GE(BinomCdf(x, 100, 0.3), q);
    if (x > 0) {
      EXPECT_LT(BinomCdf(x - 1, 100, 0.3), q);
    }
  }
}

TEST(HypergeomPmfTest, MatchesHandComputation) {
  // N=10, i=4 marked, draw j=3: P[k=2] = C(4,2) C(6,1) / C(10,3) = 36/120.
  EXPECT_NEAR(std::exp(LogHypergeomPmf(2, 10, 4, 3)), 36.0 / 120.0, 1e-12);
  EXPECT_EQ(LogHypergeomPmf(5, 10, 4, 3), -kInf);  // k > min(i, j).
}

TEST(HypergeomPmfTest, SupportLowerBound) {
  // N=10, i=8, j=7: k >= i + j - N = 5.
  EXPECT_EQ(LogHypergeomPmf(4, 10, 8, 7), -kInf);
  EXPECT_GT(std::exp(LogHypergeomPmf(5, 10, 8, 7)), 0.0);
}

TEST(HypergeomCdfTest, FullSupportSumsToOne) {
  EXPECT_NEAR(HypergeomCdf(3, 10, 4, 3), 1.0, 1e-12);
  EXPECT_EQ(HypergeomCdf(-1, 10, 4, 3), 0.0);
  double acc = 0.0;
  for (std::int64_t k = 0; k <= 3; ++k) {
    acc += std::exp(LogHypergeomPmf(k, 10, 4, 3));
    EXPECT_NEAR(HypergeomCdf(k, 10, 4, 3), acc, 1e-12);
  }
}

TEST(LogHypergeomSfTest, ComplementsCdf) {
  for (std::int64_t x = 0; x <= 3; ++x) {
    EXPECT_NEAR(std::exp(LogHypergeomSf(x, 10, 4, 3)),
                1.0 - HypergeomCdf(x, 10, 4, 3), 1e-10);
  }
}

TEST(HypergeomUpperThresholdTest, ThresholdIsTight) {
  // Paper-sized rows: N=1024, i=j=512.
  const double p_star = 1e-5;
  const std::int64_t lambda = HypergeomUpperThreshold(p_star, 1024, 512, 512);
  EXPECT_LE(std::exp(LogHypergeomSf(lambda, 1024, 512, 512)), p_star);
  EXPECT_GT(std::exp(LogHypergeomSf(lambda - 1, 1024, 512, 512)), p_star);
  // Mean overlap is 256 with sigma ~ 8; a 1e-5 threshold sits ~4.3 sigma
  // above the mean.
  EXPECT_GT(lambda, 256 + 3 * 8);
  EXPECT_LT(lambda, 256 + 6 * 8);
}

// The bisection HypergeomUpperThreshold used before its one-pass solve,
// kept here verbatim as the oracle: one LogHypergeomSf per step.
std::int64_t BisectionThreshold(double p_star, std::int64_t big_n,
                                std::int64_t i, std::int64_t j) {
  const std::int64_t k_min = std::max<std::int64_t>(0, i + j - big_n);
  const std::int64_t k_max = std::min(i, j);
  const double log_p_star = std::log(p_star);
  std::int64_t lo = k_min - 1;
  std::int64_t hi = k_max;
  while (lo + 1 < hi) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (LogHypergeomSf(mid, big_n, i, j) <= log_p_star) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

// Mismatches against the oracle over 0 <= i <= j <= big_n, with j stepping
// by `j_stride` (and always including j = big_n).
std::size_t ThresholdMismatches(double p_star, std::int64_t big_n,
                                std::int64_t j_stride) {
  std::size_t mismatches = 0;
  for (std::int64_t i = 0; i <= big_n; ++i) {
    for (std::int64_t j = i; j <= big_n;
         j = j == big_n ? big_n + 1 : std::min(big_n, j + j_stride)) {
      const std::int64_t want = BisectionThreshold(p_star, big_n, i, j);
      const std::int64_t got = HypergeomUpperThreshold(p_star, big_n, i, j);
      if (got != want) {
        ++mismatches;
        ADD_FAILURE() << "N=" << big_n << " p*=" << p_star << " i=" << i
                      << " j=" << j << ": got " << got << ", want " << want;
      }
    }
  }
  return mismatches;
}

// The p* levels of pipebench's unaligned workloads: n in {128, 768}
// vertices at null edge probability p1 * n in {0.665, 8.2}, 10 arrays per
// group (p* = 1 - (1 - p1)^(1/100), LambdaTable::PStarFromEdgeProb).
std::vector<double> PipelinePStars() {
  std::vector<double> p_stars;
  for (const double n : {128.0, 768.0}) {
    for (const double p1_times_n : {0.665, 8.2}) {
      p_stars.push_back(-std::expm1(std::log1p(-p1_times_n / n) / 100.0));
    }
  }
  return p_stars;
}

// The one-pass solve returns exactly the bisection's threshold on every
// pair at small N.
TEST(HypergeomUpperThresholdTest, MatchesBisectionExhaustively) {
  for (const std::int64_t big_n : {64, 256}) {
    for (const double p_star : {1e-2, 1e-3, 1e-5, 1e-7}) {
      EXPECT_EQ(ThresholdMismatches(p_star, big_n, 1), 0u)
          << "N=" << big_n << " p*=" << p_star;
    }
  }
}

// Paper-sized rows at the pipeline's p* levels, every i and a j-stride
// sample (the full sweep is DISABLED_MatchesBisectionFullSweepAtPaperSize).
TEST(HypergeomUpperThresholdTest, MatchesBisectionSampledAtPaperSize) {
  for (const double p_star : PipelinePStars()) {
    EXPECT_EQ(ThresholdMismatches(p_star, 1024, 61), 0u) << "p*=" << p_star;
  }
}

// Every 0 <= i <= j <= 1024 at the pipeline's p* levels (2.1 M pairs; about
// 10 s optimized, far longer under the sanitizers), so run by hand:
//   test_stats_math --gtest_also_run_disabled_tests --gtest_filter='*FullSweep*'
TEST(HypergeomUpperThresholdTest,
     DISABLED_MatchesBisectionFullSweepAtPaperSize) {
  for (const double p_star : PipelinePStars()) {
    EXPECT_EQ(ThresholdMismatches(p_star, 1024, 1), 0u) << "p*=" << p_star;
  }
}

// Degenerate supports: a single-point distribution, and a p* so loose that
// the threshold sits at or below the mode (the bisection fallback).
TEST(HypergeomUpperThresholdTest, DegenerateAndLoosePStar) {
  EXPECT_EQ(HypergeomUpperThreshold(1e-5, 100, 0, 40), 0);
  EXPECT_EQ(HypergeomUpperThreshold(1e-5, 100, 100, 40), 40);
  EXPECT_EQ(HypergeomUpperThreshold(1e-5, 100, 70, 80),
            BisectionThreshold(1e-5, 100, 70, 80));
  for (const double p_star : {0.3, 0.5, 0.9}) {
    for (const std::int64_t i : {1, 10, 50, 99}) {
      EXPECT_EQ(HypergeomUpperThreshold(p_star, 100, i, 50),
                BisectionThreshold(p_star, 100, i, 50))
          << "p*=" << p_star << " i=" << i;
    }
  }
}

TEST(NormalCdfTest, StandardValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

}  // namespace
}  // namespace dcs
