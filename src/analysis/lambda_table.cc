#include "analysis/lambda_table.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/stats_math.h"
#include "common/thread_pool.h"

namespace dcs {

LambdaTable::LambdaTable(std::size_t array_bits, double p_star)
    : array_bits_(array_bits),
      p_star_(p_star),
      cache_((array_bits + 1) * (array_bits + 2) / 2) {
  DCS_CHECK(p_star > 0.0 && p_star < 1.0);
  for (auto& entry : cache_) {
    entry.store(-1, std::memory_order_relaxed);
  }
}

std::int64_t LambdaTable::Threshold(std::uint32_t i, std::uint32_t j) const {
  DCS_CHECK(i <= array_bits_ && j <= array_bits_);
  if (i > j) std::swap(i, j);
  // Row i of the i <= j triangle holds (array_bits + 1 - i) entries.
  const std::size_t row = i;
  auto& slot =
      cache_[row * (array_bits_ + 1) - row * (row - 1) / 2 + (j - i)];
  const std::int32_t cached = slot.load(std::memory_order_relaxed);
  if (cached >= 0) return cached;
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t lambda = HypergeomUpperThreshold(
      p_star_, static_cast<std::int64_t>(array_bits_), i, j);
  slot.store(static_cast<std::int32_t>(lambda), std::memory_order_relaxed);
  return lambda;
}

void LambdaTable::Calibrate(std::span<const std::uint32_t> row_weights,
                            ThreadPool* pool) const {
  // Distinct non-zero weights, ascending. The scan never looks up a pair
  // involving an empty row, so weight 0 would be wasted work.
  std::vector<std::uint32_t> weights(row_weights.begin(), row_weights.end());
  std::sort(weights.begin(), weights.end());
  weights.erase(std::unique(weights.begin(), weights.end()), weights.end());
  if (!weights.empty() && weights.front() == 0) {
    weights.erase(weights.begin());
  }
  if (weights.empty()) return;
  // Shard over the first weight; iterating i <= j covers each unordered
  // pair exactly once, so shards compute disjoint entries and the miss
  // counter advances by exactly the number of previously-absent entries.
  auto fill_row = [&](std::size_t a) {
    for (std::size_t b = a; b < weights.size(); ++b) {
      Threshold(weights[a], weights[b]);
    }
  };
  ParallelFor(pool, weights.size(), fill_row);
}

double LambdaTable::EdgeProbFromPStar(double p_star, std::size_t arrays) {
  const double pairs = static_cast<double>(arrays) * static_cast<double>(arrays);
  return 1.0 - std::exp(pairs * std::log1p(-p_star));
}

double LambdaTable::PStarFromEdgeProb(double p1, std::size_t arrays) {
  DCS_CHECK(p1 > 0.0 && p1 < 1.0);
  const double pairs = static_cast<double>(arrays) * static_cast<double>(arrays);
  return -std::expm1(std::log1p(-p1) / pairs);
}

}  // namespace dcs
