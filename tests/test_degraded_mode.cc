// Degraded-mode analysis (docs/ROBUSTNESS.md): when m' < m routers survive
// ingestion, the monitor recomputes the aligned NNO / detectable thresholds
// and the unaligned (p1, d) co-tuning for the matrix it actually has. These
// tests pin the two contracts:
//  * equivalence — a hardened monitor fed all m routers behaves exactly like
//    the pre-hardening monitor, and a degraded monitor's calibration equals
//    an oracle monitor built for m' expected routers from the start;
//  * resilience — losing routers degrades the thresholds but does not kill
//    detection while the pattern stays above the recomputed bar.

#include <gtest/gtest.h>

#include "analysis/aligned_thresholds.h"
#include "analysis/unaligned_thresholds.h"
#include "common/rng.h"
#include "dcs/monitor.h"
#include "obs/metrics.h"

namespace dcs {
namespace {

constexpr std::size_t kBits = 512;
constexpr std::uint32_t kFleet = 16;

// One epoch of aligned digests: Bernoulli(1/4) noise (bitmap sketches are
// tuned to stay sparse) plus 24 content columns set at every router. The
// noise level matters for the resilience test below: the detector's NNO
// gate runs at the *screened* density, and at Bernoulli(1/2) an m' = 8 row
// all-ones block is naturally occurring among the heavy screened columns —
// losing half the fleet would legitimately push the pattern under the bar.
std::vector<Digest> AlignedFleet(std::uint32_t num_routers) {
  std::vector<Digest> fleet;
  Rng rng(2024);
  for (std::uint32_t r = 0; r < num_routers; ++r) {
    Digest digest;
    digest.router_id = r;
    digest.kind = DigestKind::kAligned;
    BitVector row(kBits);
    for (std::size_t i = 0; i < kBits; ++i) {
      if (rng.Bernoulli(0.25)) row.Set(i);
    }
    for (std::size_t c = 0; c < 24; ++c) row.Set(c * 20);  // The pattern.
    digest.rows.push_back(std::move(row));
    digest.packets_covered = 1000;
    digest.raw_bytes_covered = 1000000;
    fleet.push_back(std::move(digest));
  }
  return fleet;
}

std::vector<Digest> UnalignedFleet(std::uint32_t num_routers) {
  std::vector<Digest> fleet;
  Rng rng(77);
  for (std::uint32_t r = 0; r < num_routers; ++r) {
    Digest digest;
    digest.router_id = r;
    digest.kind = DigestKind::kUnaligned;
    digest.num_groups = 8;
    digest.arrays_per_group = 2;
    for (int row_index = 0; row_index < 16; ++row_index) {
      BitVector row(256);
      for (std::size_t i = 0; i < 256; ++i) {
        if (rng.Bernoulli(0.05)) row.Set(i);
      }
      digest.rows.push_back(std::move(row));
    }
    fleet.push_back(std::move(digest));
  }
  return fleet;
}

AlignedPipelineOptions SmallAlignedOptions() {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 64;
  aligned.detector.first_iteration_hopefuls = 64;
  aligned.detector.hopefuls = 32;
  return aligned;
}

DcsMonitor HardenedMonitor(std::uint32_t expected_routers) {
  IngestOptions ingest;
  ingest.expected_routers = expected_routers;
  return DcsMonitor(SmallAlignedOptions(), UnalignedPipelineOptions{},
                    AnalysisContext{}, ingest);
}

TEST(DegradedModeTest, FullFleetMatchesLegacyMonitorExactly) {
  const std::vector<Digest> fleet = AlignedFleet(kFleet);

  DcsMonitor legacy(SmallAlignedOptions(), UnalignedPipelineOptions{});
  DcsMonitor hardened = HardenedMonitor(kFleet);
  for (const Digest& digest : fleet) {
    ASSERT_TRUE(legacy.AddDigest(digest).ok());
    ASSERT_TRUE(hardened.AddDigest(digest).ok());
  }

  const AlignedReport before = legacy.AnalyzeAligned();
  const AlignedReport after = hardened.AnalyzeAligned();
  EXPECT_TRUE(before.common_content_detected);
  EXPECT_EQ(after.common_content_detected, before.common_content_detected);
  EXPECT_EQ(after.routers, before.routers);
  EXPECT_EQ(after.signature_columns, before.signature_columns);
  EXPECT_EQ(after.matrix_rows, before.matrix_rows);
  EXPECT_EQ(after.matrix_cols, before.matrix_cols);

  // Nothing missing: not degraded, and ingestion saw a clean epoch.
  EXPECT_FALSE(after.calibration.degraded);
  EXPECT_EQ(after.calibration.observed_routers, kFleet);
  EXPECT_EQ(hardened.ingest_stats().rejected_total(), 0u);
}

TEST(DegradedModeTest, DegradedCalibrationEqualsOracleMonitor) {
  const std::vector<Digest> fleet = AlignedFleet(kFleet);
  for (const std::uint32_t survivors : {kFleet, kFleet - 1, kFleet / 2}) {
    // The degraded monitor expected the whole fleet; only m' reported.
    DcsMonitor degraded = HardenedMonitor(kFleet);
    // The oracle was configured for m' routers from the start.
    DcsMonitor oracle = HardenedMonitor(survivors);
    for (std::uint32_t r = 0; r < survivors; ++r) {
      ASSERT_TRUE(degraded.AddDigest(fleet[r]).ok());
      ASSERT_TRUE(oracle.AddDigest(fleet[r]).ok());
    }

    const EpochCalibration from_degraded = degraded.AlignedCalibration();
    const EpochCalibration from_oracle = oracle.AlignedCalibration();
    EXPECT_EQ(from_degraded.degraded, survivors < kFleet);
    EXPECT_FALSE(from_oracle.degraded);
    EXPECT_EQ(from_degraded.observed_routers, survivors);
    // The thresholds depend only on the observed matrix, never on the
    // original expectation.
    EXPECT_EQ(from_degraded.aligned_min_nno_columns,
              from_oracle.aligned_min_nno_columns)
        << "survivors=" << survivors;
    EXPECT_EQ(from_degraded.aligned_detectable_columns,
              from_oracle.aligned_detectable_columns)
        << "survivors=" << survivors;

    // And they match the Section III-C / V-A.2 formulas directly.
    const auto m = static_cast<std::int64_t>(survivors);
    EXPECT_EQ(from_degraded.aligned_min_nno_columns,
              MinNonNaturallyOccurringB(
                  m, static_cast<std::int64_t>(kBits), m,
                  SmallAlignedOptions().detector.nno_epsilon))
        << "survivors=" << survivors;

    // Detection itself is identical too.
    const AlignedReport a = degraded.AnalyzeAligned();
    const AlignedReport b = oracle.AnalyzeAligned();
    EXPECT_EQ(a.common_content_detected, b.common_content_detected);
    EXPECT_EQ(a.routers, b.routers);
    EXPECT_EQ(a.signature_columns, b.signature_columns);
  }
}

TEST(DegradedModeTest, UnalignedCalibrationTracksObservedVertices) {
  const std::vector<Digest> fleet = UnalignedFleet(10);
  for (const std::uint32_t survivors : {10u, 9u, 5u}) {
    DcsMonitor degraded = HardenedMonitor(10);
    DcsMonitor oracle = HardenedMonitor(survivors);
    for (std::uint32_t r = 0; r < survivors; ++r) {
      ASSERT_TRUE(degraded.AddDigest(fleet[r]).ok());
      ASSERT_TRUE(oracle.AddDigest(fleet[r]).ok());
    }
    const EpochCalibration from_degraded = degraded.UnalignedCalibration();
    const EpochCalibration from_oracle = oracle.UnalignedCalibration();
    EXPECT_EQ(from_degraded.unaligned_min_cluster,
              from_oracle.unaligned_min_cluster)
        << "survivors=" << survivors;
    EXPECT_EQ(from_degraded.unaligned_p1, from_oracle.unaligned_p1);
    EXPECT_EQ(from_degraded.unaligned_d, from_oracle.unaligned_d);

    // Direct check against the Eq-2/Eq-3 co-tuning with the vertex count
    // the correlation graph actually has: m' routers x 8 groups.
    UnalignedNnoOptions nno;
    nno.num_vertices = static_cast<std::int64_t>(survivors) * 8;
    nno.p2 = IngestOptions{}.calibration_p2;
    nno.max_m = nno.num_vertices;
    const UnalignedNnoResult expected =
        MinNonNaturallyOccurringClusterSize(nno);
    EXPECT_EQ(from_degraded.unaligned_min_cluster,
              expected.min_cluster_size)
        << "survivors=" << survivors;
    EXPECT_DOUBLE_EQ(from_degraded.unaligned_p1, expected.best_p1);
    EXPECT_EQ(from_degraded.unaligned_d, expected.best_d);
  }
}

TEST(DegradedModeTest, IdlePipelineOfAFullFleetIsNotDegraded) {
  // A full aligned-only fleet leaves the unaligned pipeline empty. Empty is
  // idle, not missing routers: neither pipeline is degraded and the epoch
  // adds nothing to ingest.degraded_epochs.
  MetricsRegistry::Global().set_enabled(true);
  Counter& degraded_epochs = ObsCounter("ingest.degraded_epochs");
  const std::uint64_t before = degraded_epochs.value();
  DcsMonitor monitor = HardenedMonitor(kFleet);
  for (const Digest& digest : AlignedFleet(kFleet)) {
    ASSERT_TRUE(monitor.AddDigest(digest).ok());
  }
  const AlignedReport aligned = monitor.AnalyzeAligned();
  const UnalignedReport unaligned = monitor.AnalyzeUnaligned();
  const std::uint64_t after = degraded_epochs.value();
  MetricsRegistry::Global().set_enabled(false);

  EXPECT_FALSE(aligned.calibration.degraded);
  EXPECT_FALSE(unaligned.calibration.degraded);
  EXPECT_EQ(unaligned.calibration.observed_routers, 0u);
  EXPECT_EQ(after - before, 0u);
}

TEST(DegradedModeTest, HalfFleetStillDetectsThePlantedPattern) {
  DcsMonitor monitor = HardenedMonitor(kFleet);
  const std::vector<Digest> fleet = AlignedFleet(kFleet);
  for (std::uint32_t r = 0; r < kFleet / 2; ++r) {
    ASSERT_TRUE(monitor.AddDigest(fleet[r]).ok());
  }
  const AlignedReport report = monitor.AnalyzeAligned();
  EXPECT_TRUE(report.common_content_detected);
  EXPECT_TRUE(report.calibration.degraded);
  EXPECT_EQ(report.calibration.observed_routers, kFleet / 2);
  EXPECT_EQ(report.calibration.expected_routers, kFleet);
  // The recomputed bar is stated, and the found pattern clears it.
  ASSERT_GT(report.calibration.aligned_min_nno_columns, 0);
  EXPECT_GE(static_cast<std::int64_t>(report.signature_columns.size()),
            report.calibration.aligned_min_nno_columns);
  // The degraded epoch is visible in the human-readable form too.
  EXPECT_NE(report.ToString().find("DEGRADED"), std::string::npos);
}

}  // namespace
}  // namespace dcs
