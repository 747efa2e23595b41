#include "dcs/monitor.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dcs/epoch_ring.h"
#include "obs/metrics.h"

namespace dcs {
namespace {

Digest SmallAlignedDigest(std::uint32_t router, std::size_t bits) {
  Digest digest;
  digest.router_id = router;
  digest.kind = DigestKind::kAligned;
  digest.rows.push_back(BitVector(bits));
  digest.packets_covered = 10;
  digest.raw_bytes_covered = 10000;
  return digest;
}

DcsMonitor MakeMonitor() {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 64;
  UnalignedPipelineOptions unaligned;
  return DcsMonitor(aligned, unaligned);
}

TEST(MonitorTest, RejectsEmptyDigest) {
  DcsMonitor monitor = MakeMonitor();
  Digest empty;
  EXPECT_EQ(monitor.AddDigest(empty).code(),
            Status::Code::kInvalidArgument);
}

TEST(MonitorTest, RejectsShapeMismatch) {
  DcsMonitor monitor = MakeMonitor();
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  EXPECT_FALSE(monitor.AddDigest(SmallAlignedDigest(1, 2048)).ok());
  EXPECT_TRUE(monitor.AddDigest(SmallAlignedDigest(1, 1024)).ok());
  EXPECT_EQ(monitor.num_aligned_digests(), 2u);
}

TEST(MonitorTest, TracksByteAccounting) {
  DcsMonitor monitor = MakeMonitor();
  const Digest d = SmallAlignedDigest(0, 1024);
  ASSERT_TRUE(monitor.AddDigest(d).ok());
  EXPECT_EQ(monitor.raw_bytes_summarized(), 10000u);
  EXPECT_EQ(monitor.digest_bytes_received(), d.EncodedSizeBytes());
}

TEST(MonitorTest, ClearEpochResets) {
  DcsMonitor monitor = MakeMonitor();
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  monitor.ClearEpoch();
  EXPECT_EQ(monitor.num_aligned_digests(), 0u);
  EXPECT_EQ(monitor.raw_bytes_summarized(), 0u);
  // A different shape is fine after clearing.
  EXPECT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 2048)).ok());
}

TEST(MonitorTest, AlignedAnalysisNeedsTwoDigests) {
  DcsMonitor monitor = MakeMonitor();
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  const AlignedReport report = monitor.AnalyzeAligned();
  EXPECT_FALSE(report.common_content_detected);
  EXPECT_EQ(report.matrix_rows, 0u);
}

TEST(MonitorTest, EmptyBitmapsDetectNothing) {
  DcsMonitor monitor = MakeMonitor();
  for (std::uint32_t r = 0; r < 5; ++r) {
    ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(r, 1024)).ok());
  }
  const AlignedReport report = monitor.AnalyzeAligned();
  EXPECT_FALSE(report.common_content_detected);
  EXPECT_EQ(report.matrix_rows, 5u);
  EXPECT_EQ(report.matrix_cols, 1024u);
}

TEST(MonitorTest, DuplicateRouterRejected) {
  DcsMonitor monitor = MakeMonitor();
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  // Same router, same kind: a replay, even with identical content.
  EXPECT_EQ(monitor.AddDigest(SmallAlignedDigest(0, 1024)).code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(monitor.num_aligned_digests(), 1u);
  EXPECT_EQ(monitor.ingest_stats().rejected_duplicate, 1u);
  // The offender is quarantined for the rest of the epoch.
  EXPECT_TRUE(monitor.IsQuarantined(0));
  EXPECT_EQ(monitor.AddDigest(SmallAlignedDigest(0, 1024)).code(),
            Status::Code::kFailedPrecondition);
}

TEST(MonitorTest, EpochSkewRejectedAfterLock) {
  DcsMonitor monitor = MakeMonitor();
  Digest first = SmallAlignedDigest(0, 1024);
  first.epoch_id = 41;
  ASSERT_TRUE(monitor.AddDigest(first).ok());  // Locks the epoch to 41.
  Digest stale = SmallAlignedDigest(1, 1024);
  stale.epoch_id = 40;
  EXPECT_EQ(monitor.AddDigest(stale).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(monitor.ingest_stats().rejected_epoch_skew, 1u);
  // A wider window admits it (fresh monitor: options are pre-epoch only).
  IngestOptions ingest;
  ingest.max_epoch_skew = 1;
  DcsMonitor tolerant(AlignedPipelineOptions{}, UnalignedPipelineOptions{},
                      AnalysisContext{}, ingest);
  ASSERT_TRUE(tolerant.AddDigest(first).ok());
  EXPECT_TRUE(tolerant.AddDigest(stale).ok());
}

TEST(MonitorTest, InternalShapeLieRejectedBeforeAnalysis) {
  DcsMonitor monitor = MakeMonitor();
  Digest liar = SmallAlignedDigest(0, 1024);
  liar.num_groups = 7;  // An aligned digest must be 1 group x 1 array.
  EXPECT_EQ(monitor.AddDigest(liar).code(), Status::Code::kCorruption);
  EXPECT_EQ(monitor.ingest_stats().rejected_shape, 1u);

  // Unaligned: row count must equal num_groups * arrays_per_group, with
  // uniform row sizes — BuildUnalignedMatrix hard-asserts this later.
  // Each lie quarantines its sender, so every attempt gets a fresh router.
  Digest unaligned;
  unaligned.kind = DigestKind::kUnaligned;
  unaligned.num_groups = 2;
  unaligned.arrays_per_group = 2;
  unaligned.router_id = 1;
  unaligned.rows = {BitVector(64), BitVector(64), BitVector(64)};
  EXPECT_EQ(monitor.AddDigest(unaligned).code(), Status::Code::kCorruption);
  unaligned.router_id = 2;
  unaligned.rows.push_back(BitVector(32));  // Right count, ragged sizes.
  EXPECT_EQ(monitor.AddDigest(unaligned).code(), Status::Code::kCorruption);
  EXPECT_TRUE(monitor.IsQuarantined(1));
  EXPECT_TRUE(monitor.IsQuarantined(2));
  unaligned.router_id = 3;
  unaligned.rows.back() = BitVector(64);
  EXPECT_TRUE(monitor.AddDigest(unaligned).ok());
}

TEST(MonitorTest, IngestStatsAndCalibrationSurface) {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 64;
  IngestOptions ingest;
  ingest.expected_routers = 4;
  DcsMonitor monitor(aligned, UnalignedPipelineOptions{}, AnalysisContext{},
                     ingest);
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(0, 1024)).ok());
  ASSERT_TRUE(monitor.AddDigest(SmallAlignedDigest(1, 1024)).ok());

  const EpochIngestStats& stats = monitor.ingest_stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.observed_routers, 2u);
  EXPECT_EQ(stats.missing_routers(), 2u);
  EXPECT_TRUE(stats.degraded());
  EXPECT_NE(stats.ToString().find("DEGRADED"), std::string::npos);

  const AlignedReport report = monitor.AnalyzeAligned();
  EXPECT_TRUE(report.calibration.populated());
  EXPECT_TRUE(report.calibration.degraded);
  EXPECT_EQ(report.calibration.observed_routers, 2u);
  EXPECT_GT(report.calibration.aligned_min_nno_columns, 0);
  // The serialized forms carry the calibration...
  EXPECT_NE(report.ToJson().find("\"calibration\""), std::string::npos);
  EXPECT_NE(report.ToString().find("DEGRADED"), std::string::npos);
  // ...while a directly built report (no monitor) keeps the legacy forms.
  EXPECT_EQ(AlignedReport{}.ToJson().find("calibration"),
            std::string::npos);

  monitor.ClearEpoch();
  EXPECT_EQ(monitor.ingest_stats().accepted, 0u);
  EXPECT_EQ(monitor.ingest_stats().observed_routers, 0u);
}

TEST(MonitorTest, ReportToStringSmoke) {
  AlignedReport a;
  EXPECT_NE(a.ToString().find("clear"), std::string::npos);
  a.common_content_detected = true;
  EXPECT_NE(a.ToString().find("DETECTED"), std::string::npos);
  UnalignedReport u;
  u.largest_component = 7;
  EXPECT_NE(u.ToString().find("largest_cc=7"), std::string::npos);
}

// ---------- Fleet epochs: arrival order and the lambda memo ----------

constexpr std::uint32_t kFleet = 16;         // Aligned digests.
constexpr std::uint32_t kUnalignedFleet = 6;  // Unaligned digests.
constexpr std::size_t kGroups = 12;
constexpr std::size_t kArrays = 4;
constexpr std::size_t kUnalignedBits = 512;
constexpr std::size_t kAlignedBits = 1024;

// One epoch of a fleet: an aligned digest from each of kFleet routers and
// an unaligned one from the first kUnalignedFleet, noise only unless
// `planted`, in which case routers 0..11 share a 20-column aligned pattern
// and groups {0, 4, 8} of routers 0..2 share 130 unaligned indices in their
// first array.
std::vector<Digest> FleetEpoch(std::uint64_t epoch, bool planted) {
  Rng rng(epoch * 7919 + 17);
  std::vector<Digest> digests;
  std::vector<std::size_t> shared;
  while (shared.size() < 130) shared.push_back(rng.UniformInt(kUnalignedBits));
  for (std::uint32_t r = 0; r < kFleet; ++r) {
    Digest aligned;
    aligned.router_id = r;
    aligned.epoch_id = epoch;
    aligned.kind = DigestKind::kAligned;
    aligned.packets_covered = 10;
    aligned.raw_bytes_covered = 10000;
    BitVector row(kAlignedBits);
    for (std::size_t c = 0; c < kAlignedBits; ++c) {
      if (rng.Bernoulli(0.5)) row.Set(c);
    }
    if (planted && r < 12) {
      for (std::size_t c = 0; c < 20; ++c) row.Set(37 + 11 * c);
    }
    aligned.rows.push_back(std::move(row));
    digests.push_back(std::move(aligned));
    if (r >= kUnalignedFleet) continue;

    Digest unaligned;
    unaligned.router_id = r;
    unaligned.epoch_id = epoch;
    unaligned.kind = DigestKind::kUnaligned;
    unaligned.num_groups = static_cast<std::uint32_t>(kGroups);
    unaligned.arrays_per_group = static_cast<std::uint32_t>(kArrays);
    for (std::size_t k = 0; k < kGroups * kArrays; ++k) {
      BitVector urow(kUnalignedBits);
      for (std::size_t c = 0; c < kUnalignedBits; ++c) {
        if (rng.Bernoulli(0.2)) urow.Set(c);
      }
      unaligned.rows.push_back(std::move(urow));
    }
    if (planted && r < 3) {
      for (const std::size_t g : {0u, 4u, 8u}) {
        for (const std::size_t c : shared) {
          unaligned.rows[g * kArrays].Set(c);
        }
      }
    }
    digests.push_back(std::move(unaligned));
  }
  return digests;
}

AlignedPipelineOptions FleetAligned() {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 96;
  aligned.detector.first_iteration_hopefuls = 96;
  aligned.detector.hopefuls = 48;
  return aligned;
}

UnalignedPipelineOptions FleetUnaligned() {
  UnalignedPipelineOptions unaligned;
  unaligned.er_threshold = 6;
  unaligned.detector.beta = 9;
  unaligned.detector.expand_min_edges = 2;
  return unaligned;
}

// Everything one analyzed epoch reports, in comparable form.
struct EpochOutcome {
  AlignedReport aligned;
  UnalignedReport unaligned;
  std::vector<UnalignedReport> unaligned_all;
  std::string json;  // The serialized form, for byte-for-byte equality.
};

EpochOutcome Analyze(const DcsMonitor& monitor) {
  EpochOutcome out;
  out.aligned = monitor.AnalyzeAligned();
  out.unaligned = monitor.AnalyzeUnaligned();
  out.unaligned_all = monitor.AnalyzeUnalignedAll(3);
  out.json = out.aligned.ToJson() + out.unaligned.ToJson();
  for (const UnalignedReport& r : out.unaligned_all) out.json += r.ToJson();
  return out;
}

void ExpectSameOutcome(const EpochOutcome& a, const EpochOutcome& b) {
  EXPECT_TRUE(a.aligned == b.aligned);
  EXPECT_TRUE(a.unaligned == b.unaligned);
  EXPECT_TRUE(a.unaligned_all == b.unaligned_all);
  EXPECT_EQ(a.json, b.json);
}

EpochOutcome FreshOutcome(const std::vector<Digest>& digests) {
  DcsMonitor monitor(FleetAligned(), FleetUnaligned());
  for (const Digest& d : digests) EXPECT_TRUE(monitor.AddDigest(d).ok());
  return Analyze(monitor);
}

// The epoch's reports through an EpochRing, digests offered in `order`.
std::vector<DcsReport> RingReports(const std::vector<Digest>& digests,
                                   const std::vector<std::size_t>& order) {
  EpochRingOptions options;
  options.capacity = 2;
  options.aligned = FleetAligned();
  options.unaligned = FleetUnaligned();
  EpochRing ring(options);
  for (const std::size_t k : order) EXPECT_TRUE(ring.Offer(digests[k]).ok());
  ring.Drain();
  return ring.TakeReports();
}

// Rows and groups stack in ascending router_id order, so a shuffled arrival
// yields reports identical, field for field and byte for byte, to in-order
// arrival — aligned and unaligned, on a planted epoch and a clean one.
TEST(MonitorTest, ReportsIndependentOfArrivalOrder) {
  for (const bool planted : {true, false}) {
    std::vector<Digest> digests = FleetEpoch(planted ? 0 : 1, planted);
    for (Digest& d : digests) d.epoch_id = 0;
    std::vector<std::size_t> ascending(digests.size());
    for (std::size_t k = 0; k < ascending.size(); ++k) ascending[k] = k;
    const std::vector<DcsReport> reference = RingReports(digests, ascending);
    ASSERT_EQ(reference.size(), 1u);
    if (planted) {
      EXPECT_TRUE(reference[0].aligned.common_content_detected);
      EXPECT_TRUE(reference[0].unaligned.common_content_detected);
    }
    const EpochOutcome in_order = FreshOutcome(digests);
    Rng rng(planted ? 5 : 6);
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::size_t> shuffled = ascending;
      if (trial == 0) {
        std::reverse(shuffled.begin(), shuffled.end());
      } else {
        for (std::size_t k = shuffled.size(); k > 1; --k) {
          std::swap(shuffled[k - 1], shuffled[rng.UniformInt(k)]);
        }
      }
      const std::vector<DcsReport> reports = RingReports(digests, shuffled);
      ASSERT_EQ(reports.size(), 1u);
      EXPECT_TRUE(reports[0] == reference[0])
          << "planted=" << planted << " trial=" << trial;
      EXPECT_EQ(reports[0].aligned.ToJson() + reports[0].unaligned.ToJson(),
                reference[0].aligned.ToJson() +
                    reference[0].unaligned.ToJson());

      std::vector<Digest> permuted;
      for (const std::size_t k : shuffled) permuted.push_back(digests[k]);
      ExpectSameOutcome(FreshOutcome(permuted), in_order);
    }
  }
}

// The monitor keeps its lambda tables across epochs: a warm monitor's
// second epoch with recurring row weights computes no fresh entry, and its
// reports equal a fresh monitor's byte for byte. A fleet shrink changes n
// and with it p*, so the tables are rebuilt — never reused under a stale
// key — and the reports again equal a fresh monitor's.
TEST(MonitorTest, LambdaMemoReusedAcrossEpochsAndRebuiltOnKeyChange) {
  MetricsRegistry::Global().set_enabled(true);
  Counter& fresh = ObsCounter("unaligned.lambda_calibrated_entries");
  DcsMonitor warm(FleetAligned(), FleetUnaligned());

  // Epoch 0: cold tables.
  const std::vector<Digest> first = FleetEpoch(0, /*planted=*/true);
  for (const Digest& d : first) ASSERT_TRUE(warm.AddDigest(d).ok());
  std::uint64_t before = fresh.value();
  const EpochOutcome cold = Analyze(warm);
  EXPECT_TRUE(cold.unaligned.common_content_detected);
  EXPECT_GT(fresh.value(), before);
  warm.ClearEpoch();

  // Epoch 1: the same unaligned rows, moved one router along — every row
  // weight recurs, but the matrix is new.
  std::vector<Digest> second = first;
  std::vector<std::size_t> unaligned_at;
  for (std::size_t k = 0; k < second.size(); ++k) {
    second[k].epoch_id = 1;
    if (second[k].kind == DigestKind::kUnaligned) unaligned_at.push_back(k);
  }
  for (std::size_t u = 0; u < unaligned_at.size(); ++u) {
    second[unaligned_at[u]].rows =
        first[unaligned_at[(u + 1) % unaligned_at.size()]].rows;
  }
  for (const Digest& d : second) ASSERT_TRUE(warm.AddDigest(d).ok());
  before = fresh.value();
  const EpochOutcome reused = Analyze(warm);
  EXPECT_EQ(fresh.value(), before) << "a warm table recomputed an entry";
  EXPECT_TRUE(reused.unaligned.common_content_detected);
  ExpectSameOutcome(reused, FreshOutcome(second));
  warm.ClearEpoch();

  // Epoch 2: router 3 is missing — fewer vertices, a new p*.
  std::vector<Digest> shrunk;
  for (const Digest& d : second) {
    if (d.router_id != 3) {
      shrunk.push_back(d);
      shrunk.back().epoch_id = 2;
    }
  }
  for (const Digest& d : shrunk) ASSERT_TRUE(warm.AddDigest(d).ok());
  before = fresh.value();
  const EpochOutcome rebuilt = Analyze(warm);
  EXPECT_GT(fresh.value(), before) << "a stale-key table was reused";
  ExpectSameOutcome(rebuilt, FreshOutcome(shrunk));
}

}  // namespace
}  // namespace dcs
