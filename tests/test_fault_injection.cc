// Fault-injection subsystem (src/testing/fault_injector.h) and the hardened
// monitor ingestion it exists to exercise (docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "dcs/monitor.h"
#include "testing/fault_injector.h"

namespace dcs {
namespace {

Digest SmallAlignedDigest(std::uint32_t router, std::size_t bits = 1024) {
  Digest digest;
  digest.router_id = router;
  digest.kind = DigestKind::kAligned;
  BitVector row(bits);
  row.Set(router % bits);
  digest.rows.push_back(row);
  digest.packets_covered = 10;
  digest.raw_bytes_covered = 10000;
  return digest;
}

DcsMonitor MakeHardenedMonitor(std::uint32_t expected_routers) {
  AlignedPipelineOptions aligned;
  aligned.n_prime = 64;
  UnalignedPipelineOptions unaligned;
  IngestOptions ingest;
  ingest.expected_routers = expected_routers;
  return DcsMonitor(aligned, unaligned, AnalysisContext{}, ingest);
}

TEST(FaultSpecTest, ParsesFullSpec) {
  FaultSpec spec;
  ASSERT_TRUE(FaultSpec::Parse(
                  "seed=9,drop=0.1,flip=0.2,truncate=0.05,garbage=0.05,"
                  "duplicate=0.1,stale=0.1,future=0.05,shape=0.1",
                  &spec)
                  .ok());
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.drop, 0.1);
  EXPECT_DOUBLE_EQ(spec.bit_flip, 0.2);
  EXPECT_DOUBLE_EQ(spec.truncate, 0.05);
  EXPECT_DOUBLE_EQ(spec.garbage, 0.05);
  EXPECT_DOUBLE_EQ(spec.duplicate, 0.1);
  EXPECT_DOUBLE_EQ(spec.stale_epoch, 0.1);
  EXPECT_DOUBLE_EQ(spec.future_epoch, 0.05);
  EXPECT_DOUBLE_EQ(spec.lying_shape, 0.1);
}

TEST(FaultSpecTest, EmptySpecIsAllClear) {
  FaultSpec spec;
  ASSERT_TRUE(FaultSpec::Parse("", &spec).ok());
  const FaultPlan plan = MaterializeFaultPlan(spec, 16);
  for (const PlannedFault& fault : plan.faults) {
    EXPECT_EQ(fault.kind, FaultKind::kNone);
  }
}

TEST(FaultSpecTest, RejectsMalformedInput) {
  FaultSpec spec;
  EXPECT_FALSE(FaultSpec::Parse("drop", &spec).ok());
  EXPECT_FALSE(FaultSpec::Parse("unknown=0.1", &spec).ok());
  EXPECT_FALSE(FaultSpec::Parse("drop=banana", &spec).ok());
  EXPECT_FALSE(FaultSpec::Parse("drop=1.5", &spec).ok());
  EXPECT_FALSE(FaultSpec::Parse("drop=-0.1", &spec).ok());
  EXPECT_FALSE(FaultSpec::Parse("drop=0.6,flip=0.6", &spec).ok());
}

TEST(FaultSpecTest, RejectsCoercibleNumbers) {
  FaultSpec spec;
  EXPECT_FALSE(FaultSpec::Parse("seed=-1", &spec).ok());  // Once wrapped.
  EXPECT_FALSE(FaultSpec::Parse("seed=99999999999999999999", &spec).ok());
  EXPECT_FALSE(FaultSpec::Parse("seed=7x", &spec).ok());
  EXPECT_FALSE(FaultSpec::Parse("drop=0.1x", &spec).ok());
  EXPECT_FALSE(FaultSpec::Parse("drop=nan", &spec).ok());
  ASSERT_TRUE(FaultSpec::Parse("seed=18446744073709551615", &spec).ok());
  EXPECT_EQ(spec.seed, 18446744073709551615u);
}

TEST(FaultPlanTest, MaterializationIsDeterministic) {
  FaultSpec spec;
  ASSERT_TRUE(
      FaultSpec::Parse("seed=11,drop=0.3,flip=0.3,stale=0.3", &spec).ok());
  const FaultPlan a = MaterializeFaultPlan(spec, 64);
  const FaultPlan b = MaterializeFaultPlan(spec, 64);
  ASSERT_EQ(a.faults.size(), 64u);
  for (std::size_t r = 0; r < a.faults.size(); ++r) {
    EXPECT_EQ(a.faults[r].kind, b.faults[r].kind) << r;
    EXPECT_EQ(a.faults[r].mutation_seed, b.faults[r].mutation_seed) << r;
  }
  // A different master seed reshuffles fates.
  spec.seed = 12;
  const FaultPlan c = MaterializeFaultPlan(spec, 64);
  bool any_difference = false;
  for (std::size_t r = 0; r < a.faults.size(); ++r) {
    any_difference = any_difference || a.faults[r].kind != c.faults[r].kind;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlanTest, CertainFaultHitsEveryRouter) {
  FaultSpec spec;
  ASSERT_TRUE(FaultSpec::Parse("drop=1.0", &spec).ok());
  const FaultPlan plan = MaterializeFaultPlan(spec, 32);
  for (const PlannedFault& fault : plan.faults) {
    EXPECT_EQ(fault.kind, FaultKind::kDrop);
  }
}

TEST(FaultInjectorTest, ApplyIsDeterministicAndShapedByKind) {
  FaultPlan plan;
  plan.faults = {
      {0, FaultKind::kNone, 5},      {1, FaultKind::kDrop, 6},
      {2, FaultKind::kBitFlip, 7},   {3, FaultKind::kDuplicate, 8},
      {4, FaultKind::kGarbage, 9},
  };
  const FaultInjector injector(plan);
  const std::vector<std::uint8_t> encoded = SmallAlignedDigest(0).Encode();

  EXPECT_EQ(injector.Apply(0, encoded),
            std::vector<std::vector<std::uint8_t>>{encoded});
  EXPECT_TRUE(injector.Apply(1, encoded).empty());

  const auto flipped = injector.Apply(2, encoded);
  ASSERT_EQ(flipped.size(), 1u);
  EXPECT_NE(flipped[0], encoded);
  EXPECT_EQ(flipped[0], injector.Apply(2, encoded)[0]);  // Replayable.

  const auto duplicated = injector.Apply(3, encoded);
  ASSERT_EQ(duplicated.size(), 2u);
  EXPECT_EQ(duplicated[0], encoded);
  EXPECT_EQ(duplicated[1], encoded);

  // Routers beyond the plan are delivered untouched.
  EXPECT_EQ(injector.Apply(99, encoded),
            std::vector<std::vector<std::uint8_t>>{encoded});
}

// The canonical degraded-epoch rehearsal: eight expected routers, seven
// senders, one fault each. Exercises every rejection counter at once and
// pins the quarantine semantics.
TEST(FaultInjectionScenarioTest, MixedFaultsAcrossEightRouters) {
  FaultPlan plan;
  plan.faults = {
      {0, FaultKind::kNone, 100},       {1, FaultKind::kDrop, 101},
      {2, FaultKind::kBitFlip, 102},    {3, FaultKind::kTruncate, 103},
      {4, FaultKind::kDuplicate, 104},  {5, FaultKind::kStaleEpoch, 105},
      {6, FaultKind::kFutureEpoch, 106},
  };
  const FaultInjector injector(plan);

  DcsMonitor monitor = MakeHardenedMonitor(/*expected_routers=*/8);
  for (std::uint32_t r = 0; r < 7; ++r) {
    Digest digest = SmallAlignedDigest(r);
    digest.epoch_id = 5;  // Same live epoch at every honest router.
    for (const auto& message : injector.Apply(r, digest.Encode())) {
      (void)monitor.AddEncodedDigest(message);  // Rejections expected.
    }
  }

  const EpochIngestStats& stats = monitor.ingest_stats();
  EXPECT_EQ(stats.accepted, 2u);            // r0 + first copy of r4.
  EXPECT_EQ(stats.rejected_decode, 2u);     // r2 flip, r3 truncate.
  EXPECT_EQ(stats.rejected_duplicate, 1u);  // r4 second copy.
  EXPECT_EQ(stats.rejected_epoch_skew, 2u); // r5 stale, r6 future.
  EXPECT_EQ(stats.rejected_quarantined, 0u);
  EXPECT_EQ(stats.observed_routers, 2u);
  EXPECT_EQ(stats.expected_routers, 8u);
  EXPECT_EQ(stats.missing_routers(), 6u);
  EXPECT_TRUE(stats.degraded());

  // Semantic offenders are quarantined; transport corruption is not
  // attributable, so r2 and r3 are not.
  EXPECT_TRUE(monitor.IsQuarantined(4));
  EXPECT_TRUE(monitor.IsQuarantined(5));
  EXPECT_TRUE(monitor.IsQuarantined(6));
  EXPECT_FALSE(monitor.IsQuarantined(0));
  EXPECT_FALSE(monitor.IsQuarantined(2));
  EXPECT_FALSE(monitor.IsQuarantined(3));
  ASSERT_EQ(stats.quarantine.size(), 3u);
  EXPECT_EQ(stats.quarantine[0].router_id, 4u);

  // A quarantined router stays locked out for the rest of the epoch, even
  // with a perfectly well-formed follow-up...
  Digest retry = SmallAlignedDigest(5);
  retry.epoch_id = 5;
  EXPECT_EQ(monitor.AddDigest(retry).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_EQ(monitor.ingest_stats().rejected_quarantined, 1u);

  // ...and is readmitted after ClearEpoch.
  monitor.ClearEpoch();
  EXPECT_FALSE(monitor.IsQuarantined(5));
  EXPECT_TRUE(monitor.AddDigest(retry).ok());

  // Everything above is replayable: the same plan over the same digests
  // produces the same stats.
  DcsMonitor replay = MakeHardenedMonitor(/*expected_routers=*/8);
  for (std::uint32_t r = 0; r < 7; ++r) {
    Digest digest = SmallAlignedDigest(r);
    digest.epoch_id = 5;
    for (const auto& message : injector.Apply(r, digest.Encode())) {
      (void)replay.AddEncodedDigest(message);
    }
  }
  EXPECT_EQ(replay.ingest_stats().accepted, 2u);
  EXPECT_EQ(replay.ingest_stats().rejected_decode, 2u);
  EXPECT_EQ(replay.ingest_stats().rejected_epoch_skew, 2u);
}

// A resealed header lie passes the checksum, so only the monitor's
// structural validation stands between it and BuildUnalignedMatrix's
// hard assert.
TEST(FaultInjectionScenarioTest, ResealedShapeLieIsRejectedNotCrashed) {
  Digest digest = SmallAlignedDigest(3);
  std::vector<std::uint8_t> bytes = digest.Encode();
  // Claim num_groups = 4 on an aligned digest carrying one row.
  bytes[DigestWireLayout::kNumGroupsOffset] = 4;
  Digest::ResealChecksum(&bytes);

  // The checksum is fine and the decoder has no cross-field opinion...
  Digest decoded;
  ASSERT_TRUE(Digest::Decode(bytes, &decoded).ok());
  EXPECT_EQ(decoded.num_groups, 4u);

  // ...so the monitor must be the one to refuse it, with a Status.
  DcsMonitor monitor = MakeHardenedMonitor(/*expected_routers=*/2);
  EXPECT_EQ(monitor.AddEncodedDigest(bytes).code(),
            Status::Code::kCorruption);
  EXPECT_EQ(monitor.ingest_stats().rejected_shape, 1u);
  EXPECT_TRUE(monitor.IsQuarantined(3));
}

TEST(FaultInjectionScenarioTest, EpochForgeryCannotPoisonPinnedReference) {
  // With the reference epoch pinned (lock_epoch_to_first = false), a forged
  // epoch in the first-arriving message is rejected and honest epoch-0
  // routers are unaffected.
  AlignedPipelineOptions aligned;
  aligned.n_prime = 64;
  IngestOptions ingest;
  ingest.expected_routers = 3;
  ingest.lock_epoch_to_first = false;
  ingest.expected_epoch = 0;
  DcsMonitor monitor(aligned, UnalignedPipelineOptions{}, AnalysisContext{},
                     ingest);

  const std::vector<std::uint8_t> forged = FaultInjector::RewriteEpoch(
      SmallAlignedDigest(0).Encode(), /*new_epoch=*/999);
  EXPECT_EQ(monitor.AddEncodedDigest(forged).code(),
            Status::Code::kFailedPrecondition);
  EXPECT_TRUE(monitor.AddDigest(SmallAlignedDigest(1)).ok());
  EXPECT_TRUE(monitor.AddDigest(SmallAlignedDigest(2)).ok());
  EXPECT_EQ(monitor.ingest_stats().accepted, 2u);
  EXPECT_EQ(monitor.ingest_stats().rejected_epoch_skew, 1u);
}

}  // namespace
}  // namespace dcs
