#ifndef DCS_ANALYSIS_LAMBDA_TABLE_H_
#define DCS_ANALYSIS_LAMBDA_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace dcs {

class ThreadPool;

/// \brief The paper's threshold table Lambda = {lambda_{i,j}} (Section IV-B).
///
/// For two sketch rows with i and j ones out of N bits, the number of common
/// 1s under the null (no matching content) is hypergeometric; lambda_{i,j}
/// is the smallest threshold with P[X(i,j) > lambda_{i,j}] <= p_star, making
/// the per-row-pair false-alarm probability uniform regardless of row fill.
/// Entries are computed lazily (HypergeomUpperThreshold: one pmf-ratio pass,
/// confirmed against the exact tail) and cached — the scan touches only the
/// narrow band of observed fills. The cache stores the i <= j triangle only,
/// (N+1)(N+2)/2 entries. Every entry is a pure function of (array_bits,
/// p_star, i, j), so one table serves any number of graph builds with that
/// key: DcsMonitor keeps its tables across epochs and rebuilds one only when
/// the key changes, which makes steady-state calibration nearly free. The
/// cache is lock-free and safe for concurrent readers.
///
/// Deliberately lock-free — no dcs::Mutex, no DCS_GUARDED_BY: every cache
/// slot is an independent atomic whose value is a pure function of its
/// index, so two threads racing to fill the same slot write the same bits
/// and a relaxed publish is enough (the worst case is duplicated
/// computation, counted in cache_misses()). Putting the pair-scan's hottest
/// lookup behind a lock would serialize exactly the work the ThreadPool
/// shards. Same reasoning as the Counter/Gauge values in obs/metrics.h.
class LambdaTable {
 public:
  /// Table for rows of `array_bits` bits at per-pair false-alarm level
  /// `p_star`.
  LambdaTable(std::size_t array_bits, double p_star);

  /// lambda_{i,j}; symmetric in (i, j). i, j must be <= array_bits.
  std::int64_t Threshold(std::uint32_t i, std::uint32_t j) const;

  /// Precomputes lambda_{i,j} for every unordered pair of the distinct
  /// non-zero values in `row_weights` (duplicates and zeros — rows the scan
  /// skips — are dropped), sharded over `pool` when non-null. Each pair
  /// lands in exactly one shard and every entry is a pure function of
  /// (i, j), so the cache contents, the miss count, and all later
  /// Threshold() results are bit-identical at any thread count. Idempotent:
  /// already-cached entries cost one relaxed load.
  void Calibrate(std::span<const std::uint32_t> row_weights,
                 ThreadPool* pool) const;

  /// Lookups that had to compute a fresh entry (cache misses). Hits are not
  /// counted individually — the scan already counts row-pair compares, and
  /// every compare is exactly one lookup, so hit rate = 1 - misses/lookups
  /// without touching a shared counter on the hot path.
  std::uint64_t cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

  std::size_t array_bits() const { return array_bits_; }
  double p_star() const { return p_star_; }

  /// The edge probability between two null groups when each group
  /// contributes `arrays` rows and any of the arrays^2 row pairs can fire:
  /// p1 = 1 - (1 - p_star)^(arrays^2) (Section IV-B).
  static double EdgeProbFromPStar(double p_star, std::size_t arrays);

  /// Inverse of the above: the p_star achieving a target null edge
  /// probability p1.
  static double PStarFromEdgeProb(double p1, std::size_t arrays);

 private:
  std::size_t array_bits_;
  double p_star_;
  // The i <= j triangle, row-major. -1 = not yet computed. Benign
  // duplicated computation on races.
  mutable std::vector<std::atomic<std::int32_t>> cache_;
  mutable std::atomic<std::uint64_t> cache_misses_{0};
};

}  // namespace dcs

#endif  // DCS_ANALYSIS_LAMBDA_TABLE_H_
