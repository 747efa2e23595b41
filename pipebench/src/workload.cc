#include "workload.h"

#include <time.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <set>

#include "analysis/aligned_thresholds.h"
#include "common/bit_vector.h"
#include "common/distributions.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/rng.h"
#include "net/packetizer.h"
#include "sketch/bitmap_sketch.h"
#include "sketch/collector.h"
#include "sketch/flow_split_sketch.h"
#include "traffic/content_catalog.h"
#include "traffic/trace_synthesizer.h"

namespace pipebench {
namespace {

// Independent stream per (seed, template, role, index).
dcs::Rng StreamRng(std::uint64_t seed, std::uint64_t templ,
                   std::uint64_t role, std::uint64_t index) {
  return dcs::Rng(dcs::HashCombine(
      dcs::HashCombine(dcs::HashCombine(seed, templ), role), index));
}

std::vector<std::uint32_t> SortedSample(dcs::Rng* rng, std::uint64_t n,
                                        std::uint64_t k) {
  std::vector<std::uint32_t> out;
  for (std::uint64_t v : dcs::SampleWithoutReplacement(rng, n, k)) {
    out.push_back(static_cast<std::uint32_t>(v));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void FillRandom(dcs::BitVector* row, dcs::Rng* rng, bool quarter) {
  std::uint64_t* words = row->mutable_words();
  for (std::size_t w = 0; w < row->num_words(); ++w) {
    words[w] = quarter ? rng->Next() & rng->Next() : rng->Next();
  }
  const std::size_t tail = row->size() % 64;
  if (tail != 0) words[row->num_words() - 1] &= (1ULL << tail) - 1;
}

// Column count of the planted block: the smallest width the screening
// analysis (Section V-A.2) detects with probability 0.9999, doubled (at
// least 24) for margin — every planted epoch must be detected on every seed.
std::int64_t PlantColumns(const Geometry& g) {
  dcs::DetectabilityOptions detect;
  detect.n_prime = static_cast<std::int64_t>(g.n_prime);
  const std::int64_t b = dcs::DetectableThresholdB(
      g.routers, static_cast<std::int64_t>(g.aligned_bits), g.plant_rows,
      0.9999, 4096, detect);
  DCS_CHECK(b > 0) << "planted block not detectable at this geometry";
  return std::max<std::int64_t>(2 * b, 24);
}

EpochTemplate AlignedNoiseTemplate(const Geometry& g, std::uint64_t seed,
                                   std::uint32_t k) {
  EpochTemplate t;
  t.routers.resize(g.routers);
  for (std::uint32_t r = 0; r < g.routers; ++r) {
    dcs::Rng rng = StreamRng(seed, k, 1, r);
    dcs::Digest d;
    d.router_id = r;
    d.kind = dcs::DigestKind::kAligned;
    d.rows.emplace_back(g.aligned_bits);
    FillRandom(&d.rows.front(), &rng, /*quarter=*/false);
    t.routers[r].digests.push_back(std::move(d));
  }
  if (Planted(k)) {
    dcs::Rng rng = StreamRng(seed, k, 2, 0);
    t.truth.aligned_planted = true;
    t.truth.aligned_routers = SortedSample(&rng, g.routers, g.plant_rows);
    const std::vector<std::uint32_t> cols = SortedSample(
        &rng, g.aligned_bits, static_cast<std::uint64_t>(PlantColumns(g)));
    t.truth.aligned_columns.assign(cols.begin(), cols.end());
    for (std::uint32_t r : t.truth.aligned_routers) {
      dcs::BitVector& row = t.routers[r].digests.front().rows.front();
      for (std::size_t c : t.truth.aligned_columns) row.Set(c);
    }
  }
  return t;
}

EpochTemplate UnalignedNoiseTemplate(const Geometry& g, std::uint64_t seed,
                                     std::uint32_t k) {
  EpochTemplate t;
  t.routers.resize(g.routers);
  for (std::uint32_t r = 0; r < g.routers; ++r) {
    dcs::Rng rng = StreamRng(seed, k, 3, r);
    dcs::Digest d;
    d.router_id = r;
    d.kind = dcs::DigestKind::kUnaligned;
    d.num_groups = g.groups;
    d.arrays_per_group = g.arrays;
    d.rows.reserve(static_cast<std::size_t>(g.groups) * g.arrays);
    for (std::size_t i = 0; i < static_cast<std::size_t>(g.groups) * g.arrays;
         ++i) {
      d.rows.emplace_back(g.array_bits);
      FillRandom(&d.rows.back(), &rng, /*quarter=*/true);
    }
    t.routers[r].digests.push_back(std::move(d));
  }
  if (Planted(k)) {
    // One shared index set (the common content) lands in one array of each
    // planted group — which array depends on the instance's offset.
    dcs::Rng rng = StreamRng(seed, k, 4, 0);
    t.truth.unaligned_planted = true;
    const std::vector<std::uint32_t> vertices = SortedSample(
        &rng, static_cast<std::uint64_t>(g.routers) * g.groups,
        g.plant_groups);
    const std::vector<std::uint32_t> signal =
        SortedSample(&rng, g.array_bits, g.plant_signal);
    std::set<std::uint32_t> routers;
    for (std::uint32_t v : vertices) {
      const std::uint32_t router = v / g.groups;
      const std::uint32_t group = v % g.groups;
      const std::uint64_t array = rng.UniformInt(g.arrays);
      dcs::BitVector& row =
          t.routers[router].digests.front().rows[group * g.arrays + array];
      for (std::uint32_t s : signal) row.Set(s);
      t.truth.unaligned_groups.push_back(dcs::GroupRef{router, group});
      routers.insert(router);
    }
    t.truth.unaligned_routers.assign(routers.begin(), routers.end());
  }
  return t;
}

dcs::BitmapSketchOptions FaninBitmap(const Geometry& g) {
  dcs::BitmapSketchOptions options;
  options.num_bits = g.aligned_bits;
  return options;
}

dcs::FlowSplitOptions FaninFlowSplit(const Geometry& g) {
  dcs::FlowSplitOptions options;
  options.num_groups = g.groups;
  options.offset_options.num_arrays = g.arrays;
  options.offset_options.array_bits = g.array_bits;
  return options;
}

EpochTemplate FaninTemplate(const Geometry& g, std::uint64_t seed,
                            std::uint32_t k) {
  EpochTemplate t;
  dcs::Rng rng = StreamRng(seed, k, 5, 0);
  dcs::ScenarioOptions scenario;
  scenario.num_routers = g.routers;
  scenario.background_packets_per_router = g.background_packets;
  scenario.background.max_flow_packets = g.max_flow_packets;
  scenario.seed = rng.Next();
  const dcs::ContentCatalog catalog(rng.Next());
  dcs::PlantedContent object;
  dcs::PlantedContent worm;
  if (Planted(k)) {
    object.content_id = 1;
    object.content_bytes = 536 * g.aligned_plant_packets;
    object.router_ids = SortedSample(&rng, g.routers, g.aligned_plant_routers);
    object.aligned = true;
    worm.content_id = 2;
    worm.content_bytes = 536 * g.unaligned_plant_packets;
    worm.router_ids =
        SortedSample(&rng, g.routers, g.unaligned_plant_routers);
    worm.aligned = false;
    worm.instances_per_router = g.unaligned_instances;
    scenario.planted = {object, worm};
  }
  const std::vector<dcs::PacketTrace> traces =
      dcs::SynthesizeScenario(scenario, catalog);
  t.routers.resize(g.routers);
  for (std::uint32_t r = 0; r < g.routers; ++r) {
    t.routers[r].trace = traces[r];
    t.routers[r].digests =
        SketchRouter(g, seed, k, r, traces[r], /*timed=*/false, nullptr);
  }
  if (!Planted(k)) return t;

  // Aligned truth: the bitmap columns of the object's own packets.
  t.truth.aligned_planted = true;
  t.truth.aligned_routers = object.router_ids;
  dcs::BitmapSketch sketch(FaninBitmap(g));
  const std::string object_bytes =
      catalog.ContentBytes(object.content_id, object.content_bytes);
  for (const dcs::Packet& packet :
       dcs::PacketizeObject(dcs::FlowLabel{}, "", object_bytes,
                            dcs::PacketizerOptions{})) {
    sketch.Update(packet);
  }
  for (std::size_t c = 0; c < sketch.bits().size(); ++c) {
    if (sketch.bits().Test(c)) t.truth.aligned_columns.push_back(c);
  }

  // Unaligned truth: the groups the worm's instance flows split into. An
  // instance flow is one whose payload tail is a substring of the worm.
  t.truth.unaligned_planted = true;
  t.truth.unaligned_routers = worm.router_ids;
  const std::string worm_bytes =
      catalog.ContentBytes(worm.content_id, worm.content_bytes);
  dcs::Rng unused(0);
  const dcs::FlowSplitSketch splitter(FaninFlowSplit(g), &unused);
  for (std::uint32_t r : worm.router_ids) {
    std::set<std::uint32_t> groups;
    for (const dcs::Packet& packet : traces[r]) {
      if (packet.payload.size() < 64) continue;
      const char* tail = packet.payload.data() + packet.payload.size() - 64;
      if (memmem(worm_bytes.data(), worm_bytes.size(), tail, 64) != nullptr) {
        groups.insert(static_cast<std::uint32_t>(splitter.GroupOf(packet.flow)));
      }
    }
    for (std::uint32_t group : groups) {
      t.truth.unaligned_groups.push_back(dcs::GroupRef{r, group});
    }
  }
  return t;
}

void AppendList(std::string* out, const std::vector<std::uint32_t>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back('.');
    out->append(std::to_string(values[i]));
  }
}

void AppendGroups(std::string* out, const std::vector<dcs::GroupRef>& groups) {
  for (std::size_t i = 0; i < groups.size(); ++i) {
    if (i > 0) out->push_back('.');
    out->append(std::to_string(groups[i].router_id) + ":" +
                std::to_string(groups[i].group_index));
  }
}

void AppendCalibration(std::string* out, const dcs::EpochCalibration& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "cal(%u,%u,%d,%" PRId64 ",%" PRId64 ",%a,%" PRId64 ",%" PRId64
                ")",
                c.expected_routers, c.observed_routers, c.degraded ? 1 : 0,
                c.aligned_min_nno_columns, c.aligned_detectable_columns,
                c.unaligned_p1, c.unaligned_d, c.unaligned_min_cluster);
  out->append(buf);
}

}  // namespace

bool MakeGeometry(const std::string& name, bool quick, Geometry* out) {
  Geometry g;
  g.name = name;
  if (name == "aligned_scale") {
    g.kind = Kind::kAlignedNoise;
    g.codec = dcs::CodecMode::kRaw;
    g.routers = quick ? 32 : 64;
    g.aligned_bits = quick ? (1u << 14) : (1u << 20);
    g.n_prime = quick ? 128 : 1000;
    g.plant_rows = quick ? 24 : 40;
  } else if (name == "unaligned_groups") {
    g.kind = Kind::kUnalignedNoise;
    g.codec = dcs::CodecMode::kRaw;
    g.routers = quick ? 4 : 6;
    g.groups = quick ? 32 : 128;
    g.arrays = 10;
    g.array_bits = 1024;
    g.plant_groups = quick ? 56 : 96;
    g.plant_signal = 160;
    g.beta = quick ? 12 : 30;
  } else if (name == "router_fanin") {
    g.kind = Kind::kFanin;
    g.codec = dcs::CodecMode::kAuto;
    g.routers = 32;
    g.background_packets = 800;
    // Short flows spread each router's packets evenly over its groups, so
    // row weights stay in a narrow band: λ calibration fills every pair of
    // distinct weights, and flows of up to 64 packets doubled its cost.
    g.max_flow_packets = 4;
    g.aligned_bits = 1u << 11;
    g.n_prime = 128;
    g.aligned_plant_routers = 24;
    g.aligned_plant_packets = 20;
    g.groups = 4;
    g.arrays = 10;
    g.array_bits = 1024;
    g.unaligned_plant_routers = 16;
    g.unaligned_plant_packets = 40;
    g.unaligned_instances = 4;
    g.er_threshold = 24;
    g.beta = 12;
    // Twelve templates: λ calibration cost follows each template's row
    // weights, so a run averages over nine planted epochs, not three.
    g.templates = quick ? 4 : 12;
    g.cycles = quick ? 1 : 3;
    // Serial analysis: with a pool, the ThreadPool::RunShards latch race
    // crashed this workload's server now and then (its ~250 small pool
    // tasks per epoch give the race many chances), which no two sets of
    // runs can reproduce alike. Pooled analysis is measured on
    // unaligned_groups and aligned_scale.
    g.pooled = false;
  } else {
    return false;
  }
  *out = g;
  return true;
}

dcs::EpochRingOptions RingOptions(const Geometry& g) {
  dcs::EpochRingOptions options;
  options.capacity = kRingCapacity;
  options.policy = dcs::ShedPolicy::kBlock;
  options.analysis_budget_per_offer = 1;
  options.ingest.expected_routers = g.routers;
  if (g.kind != Kind::kUnalignedNoise) {
    options.aligned.sketch.num_bits = g.aligned_bits;
    options.aligned.n_prime = g.n_prime;
    options.aligned.detector.first_iteration_hopefuls = g.n_prime;
    options.aligned.detector.hopefuls = g.n_prime / 2;
    options.aligned.incremental_weights = true;
  }
  if (g.kind != Kind::kAlignedNoise) {
    options.unaligned.sketch = FaninFlowSplit(g);
    options.unaligned.detector.beta = g.beta;
    // Survivor expansion needs d edges into the core; d = 8 is what the
    // (p1, d) co-tuning of Eqs 2-3 picks at these graph sizes (the reports'
    // calibration.unaligned_d), and keeps noise groups out of the result.
    options.unaligned.detector.expand_min_edges = 8;
    options.unaligned.er_threshold = g.er_threshold;
  }
  return options;
}

std::vector<EpochTemplate> SynthesizeTemplates(const Geometry& g,
                                               std::uint64_t seed) {
  std::vector<EpochTemplate> out;
  for (std::uint32_t k = 0; k < g.templates; ++k) {
    out.push_back(SynthesizeTemplate(g, seed, k));
  }
  return out;
}

EpochTemplate SynthesizeTemplate(const Geometry& g, std::uint64_t seed,
                                 std::uint32_t k) {
  switch (g.kind) {
    case Kind::kAlignedNoise:
      return AlignedNoiseTemplate(g, seed, k);
    case Kind::kUnalignedNoise:
      return UnalignedNoiseTemplate(g, seed, k);
    case Kind::kFanin:
      break;
  }
  return FaninTemplate(g, seed, k);
}

std::vector<dcs::Digest> SketchRouter(const Geometry& g, std::uint64_t seed,
                                      std::uint32_t template_index,
                                      std::uint32_t router,
                                      const dcs::PacketTrace& trace,
                                      bool timed, SketchTimes* times) {
  const dcs::PacketTrace::EpochView epoch =
      trace.SplitIntoEpochs(trace.size())[0];
  std::vector<dcs::Digest> digests;
  std::uint64_t t0 = timed ? MonoNs() : 0;
  dcs::AlignedCollector aligned(router, FaninBitmap(g));
  digests.push_back(aligned.ProcessEpoch(epoch));
  std::uint64_t t1 = timed ? MonoNs() : 0;
  dcs::Rng offsets = StreamRng(seed, template_index, 6, router);
  dcs::UnalignedCollector unaligned(router, FaninFlowSplit(g), &offsets);
  digests.push_back(unaligned.ProcessEpoch(epoch));
  if (timed) {
    const std::uint64_t t2 = MonoNs();
    times->aligned_ns += t1 - t0;
    times->unaligned_ns += t2 - t1;
    times->aligned_packets += epoch.size();
    times->unaligned_packets += epoch.size();
  }
  return digests;
}

std::string SerializeReport(const dcs::DcsReport& r) {
  std::string out;
  out += "shed=" + std::to_string(r.shed ? 1 : 0);
  out += ";degraded=" + std::to_string(r.degraded_analysis ? 1 : 0);
  out += ";accepted=" + std::to_string(r.digests_accepted);
  out += ";rejected=" + std::to_string(r.digests_rejected);
  out += ";observed=" + std::to_string(r.observed_routers);
  const dcs::AlignedReport& a = r.aligned;
  out += ";A:det=" + std::to_string(a.common_content_detected ? 1 : 0);
  out += ",shape=" + std::to_string(a.matrix_rows) + "x" +
         std::to_string(a.matrix_cols) + ",routers=";
  AppendList(&out, a.routers);
  out += ",cols=";
  for (std::size_t i = 0; i < a.signature_columns.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(a.signature_columns[i]);
  }
  out.push_back(',');
  AppendCalibration(&out, a.calibration);
  const dcs::UnalignedReport& u = r.unaligned;
  out += ";U:det=" + std::to_string(u.common_content_detected ? 1 : 0);
  out += ",lcc=" + std::to_string(u.largest_component) + "/" +
         std::to_string(u.er_threshold);
  out += ",graph=" + std::to_string(u.num_vertices) + "v" +
         std::to_string(u.num_edges) + "e,groups=";
  AppendGroups(&out, u.groups);
  out += ",clusters=";
  for (std::size_t i = 0; i < u.clusters.size(); ++i) {
    if (i > 0) out.push_back('/');
    AppendGroups(&out, u.clusters[i]);
  }
  out += ",routers=";
  AppendList(&out, u.routers);
  out.push_back(',');
  AppendCalibration(&out, u.calibration);
  return out;
}

std::uint64_t MonoNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace pipebench
