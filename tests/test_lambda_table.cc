#include "analysis/lambda_table.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/stats_math.h"
#include "common/thread_pool.h"

namespace dcs {
namespace {

TEST(LambdaTableTest, MatchesDirectComputation) {
  LambdaTable table(1024, 1e-5);
  for (std::uint32_t i : {100u, 450u, 512u}) {
    for (std::uint32_t j : {80u, 500u}) {
      EXPECT_EQ(table.Threshold(i, j),
                HypergeomUpperThreshold(1e-5, 1024, i, j))
          << i << "," << j;
    }
  }
}

TEST(LambdaTableTest, SymmetricInArguments) {
  LambdaTable table(1024, 1e-4);
  EXPECT_EQ(table.Threshold(300, 400), table.Threshold(400, 300));
}

TEST(LambdaTableTest, MonotoneInRowFill) {
  LambdaTable table(1024, 1e-5);
  EXPECT_LE(table.Threshold(200, 300), table.Threshold(400, 300));
  EXPECT_LE(table.Threshold(400, 300), table.Threshold(400, 600));
}

TEST(LambdaTableTest, FalseAlarmLevelIsRespected) {
  const double p_star = 1e-4;
  LambdaTable table(1024, p_star);
  const std::int64_t lambda = table.Threshold(470, 490);
  EXPECT_LE(std::exp(LogHypergeomSf(lambda, 1024, 470, 490)), p_star);
  EXPECT_GT(std::exp(LogHypergeomSf(lambda - 1, 1024, 470, 490)), p_star);
}

TEST(LambdaTableTest, CacheIsStableAcrossRepeatedCalls) {
  LambdaTable table(512, 1e-4);
  const std::int64_t first = table.Threshold(250, 260);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(table.Threshold(250, 260), first);
  }
}

TEST(LambdaTableTest, ConcurrentLookupsAgree) {
  LambdaTable table(1024, 1e-5);
  ThreadPool pool(4);
  std::vector<std::int64_t> results(64);
  ParallelFor(&pool, 64, [&](std::size_t i) {
    results[i] = table.Threshold(static_cast<std::uint32_t>(400 + i % 8),
                                 static_cast<std::uint32_t>(450 + i % 5));
  });
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(results[i],
              table.Threshold(static_cast<std::uint32_t>(400 + i % 8),
                              static_cast<std::uint32_t>(450 + i % 5)));
  }
}

TEST(LambdaTableTest, EdgeProbPStarRoundTrip) {
  for (double p1 : {1e-5, 1e-4, 1e-2}) {
    const double p_star = LambdaTable::PStarFromEdgeProb(p1, 10);
    EXPECT_NEAR(LambdaTable::EdgeProbFromPStar(p_star, 10), p1,
                p1 * 1e-9);
  }
}

TEST(LambdaTableTest, EdgeProbIsAboutPairsTimesPStar) {
  // For tiny p_star, p1 ~ arrays^2 * p_star.
  const double p1 = LambdaTable::EdgeProbFromPStar(1e-8, 10);
  EXPECT_NEAR(p1, 100 * 1e-8, 1e-10);
}

}  // namespace
}  // namespace dcs
