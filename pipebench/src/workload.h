// Workload definitions shared by the load generator and the system under
// test. Both processes derive the analysis options from the workload name,
// so the generator's in-process reference runs exactly the configuration the
// server runs.

#ifndef PIPEBENCH_WORKLOAD_H_
#define PIPEBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dcs/epoch_ring.h"
#include "dcs/report.h"
#include "net/trace.h"
#include "netio/digest_sender.h"
#include "sketch/digest.h"

namespace pipebench {

enum class Kind {
  kAlignedNoise,    // Bernoulli(1/2) aligned digests, planted all-ones block.
  kUnalignedNoise,  // Random flow-split digests, planted shared indices.
  kFanin,           // Collectors over synthesized packet traces.
};

/// Epochs the server's ring holds open; epoch e becomes closable when the
/// first digest of e + kRingCapacity arrives.
inline constexpr std::size_t kRingCapacity = 2;
/// Share of --seconds spent in the closed-loop phase.
inline constexpr double kClosedShare = 0.3;
/// Server launches per run; setup_s is their median.
inline constexpr int kSetups = 9;

/// Everything that defines one workload. Sizes are fixed per workload (and
/// per --quick); only the seed varies between runs.
struct Geometry {
  std::string name;
  Kind kind = Kind::kAlignedNoise;
  std::uint32_t routers = 0;
  /// Distinct epochs synthesized per run; epoch e ships template e % K.
  /// See Planted() for which carry content.
  std::uint32_t templates = 4;
  dcs::CodecMode codec = dcs::CodecMode::kRaw;
  /// Rounds of (closed-loop segment, open-loop segment) per run. More than
  /// one spreads each phase over the whole run, so a stretch of host
  /// contention weighs on both alike; each closed segment must still hold
  /// several windows of `templates` epochs.
  std::uint32_t cycles = 1;
  /// Whether the server (and the in-process reference) run the analysis on
  /// a thread pool. See MakeGeometry() for the one workload that does not.
  bool pooled = true;

  // kAlignedNoise: routers x aligned_bits matrix, plant_rows x plant_cols
  // all-ones block (plant_cols derived from the detectability analysis).
  std::size_t aligned_bits = 0;
  std::size_t n_prime = 0;
  std::uint32_t plant_rows = 0;

  // kUnalignedNoise: routers x groups x arrays x array_bits.
  std::uint32_t groups = 0;
  std::uint32_t arrays = 0;
  std::size_t array_bits = 0;
  std::uint32_t plant_groups = 0;
  std::uint32_t plant_signal = 0;
  std::size_t beta = 0;

  // kFanin: per-router synthesized traffic.
  std::size_t background_packets = 0;
  std::uint32_t aligned_plant_routers = 0;
  std::size_t aligned_plant_packets = 0;
  std::uint32_t unaligned_plant_routers = 0;
  std::size_t unaligned_plant_packets = 0;
  std::size_t unaligned_instances = 0;
  /// Background flow sizes are Zipf over [1, max_flow_packets].
  std::uint64_t max_flow_packets = 0;
  std::size_t er_threshold = 0;
};

/// Templates 0-2 of every 4 carry planted content; template 3 is clean.
/// Mostly-planted keeps the latency median and tail inside one cost class
/// (planted epochs cost more to analyze) instead of on the boundary.
inline bool Planted(std::uint32_t template_index) {
  return template_index % 4 != 3;
}

/// The geometry of `name`; false when the name is unknown.
bool MakeGeometry(const std::string& name, bool quick, Geometry* out);

/// Digests each router ships per epoch (kFanin: aligned + unaligned).
inline std::uint32_t DigestsPerRouter(const Geometry& geometry) {
  return geometry.kind == Kind::kFanin ? 2 : 1;
}

/// The ring (and analysis) configuration the server runs.
dcs::EpochRingOptions RingOptions(const Geometry& geometry);

/// What was planted into one epoch template — the ground truth the reports
/// are judged against.
struct Truth {
  bool aligned_planted = false;
  std::vector<std::uint32_t> aligned_routers;
  std::vector<std::size_t> aligned_columns;
  bool unaligned_planted = false;
  std::vector<dcs::GroupRef> unaligned_groups;
  std::vector<std::uint32_t> unaligned_routers;
};

/// One router's share of an epoch template.
struct RouterInput {
  /// kFanin: the router's packets (sketched live every epoch).
  dcs::PacketTrace trace;
  /// Digests in send order (aligned first). For kFanin these are the
  /// collector outputs, kept for the reference analysis.
  std::vector<dcs::Digest> digests;
};

struct EpochTemplate {
  std::vector<RouterInput> routers;
  Truth truth;
};

/// Synthesizes every template of the workload from `seed`.
std::vector<EpochTemplate> SynthesizeTemplates(const Geometry& geometry,
                                               std::uint64_t seed);

/// Synthesizes template `template_index` alone; Planted() of the index
/// decides whether it carries content. Indices past geometry.templates are
/// never shipped: the reference uses them for extra clean epochs.
EpochTemplate SynthesizeTemplate(const Geometry& geometry, std::uint64_t seed,
                                 std::uint32_t template_index);

/// kFanin router work: runs fresh collectors over `trace` and returns the
/// digests (epoch id 0). The collector randomness is derived from
/// (seed, template, router), so a template always sketches to the same
/// digests. Accumulates the sketch time (ns) and packet counts.
struct SketchTimes {
  std::uint64_t aligned_ns = 0;
  std::uint64_t unaligned_ns = 0;
  std::uint64_t aligned_packets = 0;
  std::uint64_t unaligned_packets = 0;
};
std::vector<dcs::Digest> SketchRouter(const Geometry& geometry,
                                      std::uint64_t seed,
                                      std::uint32_t template_index,
                                      std::uint32_t router,
                                      const dcs::PacketTrace& trace,
                                      bool timed, SketchTimes* times);

/// Canonical text form of a report, without its epoch id. Two reports are
/// equal exactly when their forms are equal. No spaces.
std::string SerializeReport(const dcs::DcsReport& report);

/// Monotonic nanoseconds (CLOCK_MONOTONIC — one clock for both processes).
std::uint64_t MonoNs();

}  // namespace pipebench

#endif  // PIPEBENCH_WORKLOAD_H_
