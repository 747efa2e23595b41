// dcs_workbench — operational CLI for the DCS pipeline.
//
// Drives the three deployment stages through their on-disk formats:
//
//   dcs_workbench synthesize --out-dir /tmp/dcs [--routers 24] [--packets 5000]
//       [--content-packets 15] [--content-routers 18] [--unaligned]
//       [--instances 3] [--seed 42] [--no-content]
//     Writes router_<i>.trace files with synthetic traffic and (optionally)
//     a planted common content.
//
//   dcs_workbench collect --in-dir /tmp/dcs --out-dir /tmp/dcs
//       [--mode aligned|unaligned] [--bitmap-bits 8192] [--groups 16]
//     Runs the per-router streaming sketches over each trace and writes
//     router_<i>.digest (the encoded wire format).
//
//   dcs_workbench analyze --in-dir /tmp/dcs [--mode aligned|unaligned]
//       [--n-prime 128] [--er-threshold 0] [--beta 12] [--threads 1]
//       [--expected-routers 0] [--fault-plan "seed=7,drop=0.1,flip=0.1"]
//       [--ring-epochs 0] [--ring-capacity 4] [--shed-policy block]
//       [--epoch-stride 1]
//     Stacks the digests at the analysis center and prints the report.
//     --threads N > 1 runs the analysis on an N-worker pool — the aligned
//     pipeline (weight screen, ASID search, core scan) and the whole
//     unaligned pipeline (row weights, lambda calibration, pair scan,
//     min-degree peeling, survivor expansion); the report is bit-identical
//     at any thread count (docs/PARALLELISM.md).
//     --expected-routers N turns on hardened ingestion (docs/ROBUSTNESS.md):
//     rejected digests are reported instead of aborting the run, and the
//     report carries thresholds recalibrated for the routers that actually
//     made it. --fault-plan runs every digest through the deterministic
//     fault injector first (src/testing/fault_injector.h) to rehearse a
//     lossy or hostile collection network; see FaultSpec::Parse for the
//     key=value syntax.
//
//     --ring-epochs N replays the on-disk digests as N consecutive epochs
//     through the continuous-operation EpochRing (docs/STREAMING.md)
//     instead of a one-shot analysis: each epoch re-stamps the digests'
//     epoch_id (FaultInjector::RewriteEpoch) so the ring exercises slot
//     recycling and incremental weights exactly as a live deployment
//     would. --ring-capacity (default 4) sizes the window; --shed-policy
//     block|drop-oldest|degrade picks the back-pressure response;
//     --epoch-stride S > 1 offers epochs 0, S, 2S, ... so each arrival
//     forces S-1 head closes against the per-offer analysis budget —
//     the way to watch the shed policies actually fire from the CLI.
//
//   dcs_workbench send --in-dir /tmp/dcs (--uds /tmp/dcs.sock | --tcp-port N)
//       [--host 127.0.0.1] [--codec raw|sparse|auto] [--epochs 1]
//       [--epoch-stride 1] [--coalesce-bytes 0]
//     Ships the on-disk digests to a running dcs_ingestd over the framed
//     digest plane (docs/DISTRIBUTED.md), re-stamped as consecutive epochs
//     exactly like the --ring-epochs replay: epoch-major, router-minor, so
//     the server's report stream matches an in-process ring replay of the
//     same digests. --codec picks the per-frame payload codec (auto = keep
//     sparse only when it saves wire bytes).
//
//   dcs_workbench demo
//     Runs all three stages in a temporary directory.
//
// Any command also accepts:
//   --metrics             Enable the observability registry and print a
//                         metric summary table after the command finishes.
//   --metrics-out <path>  Like --metrics, but dump the snapshot as JSON
//                         lines to <path> instead of a table.
//
// Flags are strict (dcs::Flags, src/common/config.h): an unknown or
// repeated flag, a malformed or out-of-range number (--threads stops at
// kMaxThreads = 256), a value flag with no value, or a switch given a value
// prints an error naming the flag and exits 1 before any file is written.

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "dcs/dcs.h"
#include "netio/digest_sender.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "testing/fault_injector.h"
#include "traffic/content_catalog.h"
#include "traffic/trace_synthesizer.h"

namespace dcs {
namespace {

// Largest --routers: synthesize holds every router's trace in memory.
constexpr std::int64_t kMaxRouters = 65536;

std::string TracePath(const std::string& dir, std::uint32_t router) {
  return dir + "/router_" + std::to_string(router) + ".trace";
}

std::string DigestPath(const std::string& dir, std::uint32_t router) {
  return dir + "/router_" + std::to_string(router) + ".digest";
}

Status WriteBytes(const std::string& path,
                  const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  if (written != bytes.size()) return Status::IoError("short write " + path);
  return Status::Ok();
}

Status ReadBytes(const std::string& path, std::vector<std::uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot read " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<std::size_t>(size));
  const std::size_t read = std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  if (read != out->size()) return Status::IoError("short read " + path);
  return Status::Ok();
}

// ----------------------------------------------------------------------
// Stage 1: synthesize traces.
// ----------------------------------------------------------------------

Status CmdSynthesize(Flags& flags) {
  const std::string out_dir = flags.String("out-dir", "");
  ScenarioOptions scenario;
  flags.Int("routers", 24, 1, kMaxRouters, &scenario.num_routers);
  flags.Int("packets", 5000, 0, kNoMax,
            &scenario.background_packets_per_router);
  flags.Int("seed", 42, 0, kNoMax, &scenario.seed);
  const bool no_content = flags.Switch("no-content");
  PlantedContent plant;
  flags.Int("content-id", 1, 0, kNoMax, &plant.content_id);
  std::size_t content_packets = 0;
  flags.Int("content-packets", 15, 0, kNoMax, &content_packets);
  std::uint32_t content_routers = 0;
  flags.Int("content-routers",
            static_cast<std::uint32_t>(scenario.num_routers * 3 / 4), 0,
            static_cast<std::int64_t>(scenario.num_routers), &content_routers);
  plant.aligned = !flags.Switch("unaligned");
  flags.Int("instances", plant.aligned ? 1 : 3, 1, kNoMax,
            &plant.instances_per_router);
  std::uint64_t catalog_seed = 0;
  flags.Int("catalog-seed", 7, 0, kNoMax, &catalog_seed);
  DCS_RETURN_IF_ERROR(flags.Finish());
  if (out_dir.empty()) return Status::InvalidArgument("--out-dir required");

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (!no_content) {
    plant.content_bytes = content_packets * 536;
    for (std::uint32_t r = 0; r < content_routers; ++r) {
      plant.router_ids.push_back(r);
    }
    scenario.planted = {plant};
  }

  ContentCatalog catalog(catalog_seed);
  const std::vector<PacketTrace> traces =
      SynthesizeScenario(scenario, catalog);
  for (std::uint32_t r = 0; r < traces.size(); ++r) {
    DCS_RETURN_IF_ERROR(traces[r].WriteToFile(TracePath(out_dir, r)));
  }
  std::printf("synthesize: wrote %zu traces (~%zu packets each) to %s\n",
              traces.size(), traces[0].size(), out_dir.c_str());
  return Status::Ok();
}

// ----------------------------------------------------------------------
// Stage 2: per-router collection.
// ----------------------------------------------------------------------

// "aligned" or "unaligned" from --mode; false and InvalidArgument otherwise.
Status ReadMode(Flags& flags, bool* unaligned) {
  const std::string mode = flags.String("mode", "aligned");
  *unaligned = mode == "unaligned";
  if (*unaligned || mode == "aligned") return Status::Ok();
  return Status::InvalidArgument("--mode must be aligned|unaligned, got \"" +
                                 mode + "\"");
}

Status CmdCollect(Flags& flags) {
  const std::string in_dir = flags.String("in-dir", "");
  const std::string out_dir = flags.String("out-dir", in_dir);
  bool unaligned = false;
  const Status mode_status = ReadMode(flags, &unaligned);
  std::uint64_t seed = 0;
  flags.Int("seed", 2026, 0, kNoMax, &seed);
  FlowSplitOptions split;
  flags.Int("groups", 16, 1, kNoMax, &split.num_groups);
  BitmapSketchOptions bitmap;
  flags.Int("bitmap-bits", 8192, 1, kNoMax, &bitmap.num_bits);
  DCS_RETURN_IF_ERROR(flags.Finish());
  DCS_RETURN_IF_ERROR(mode_status);
  if (in_dir.empty()) return Status::InvalidArgument("--in-dir required");

  Rng offsets_rng(seed);
  std::uint32_t routers = 0;
  std::uint64_t digest_bytes = 0;
  std::uint64_t raw_bytes = 0;
  for (std::uint32_t r = 0;; ++r) {
    PacketTrace trace;
    const Status status =
        PacketTrace::ReadFromFile(TracePath(in_dir, r), &trace);
    if (status.code() == Status::Code::kNotFound) break;
    DCS_RETURN_IF_ERROR(status);
    const auto epochs = trace.SplitIntoEpochs(trace.size());

    Digest digest;
    if (unaligned) {
      UnalignedCollector collector(r, split, &offsets_rng);
      digest = collector.ProcessEpoch(epochs[0]);
    } else {
      AlignedCollector collector(r, bitmap);
      digest = collector.ProcessEpoch(epochs[0]);
    }
    const std::vector<std::uint8_t> encoded = digest.Encode();
    DCS_RETURN_IF_ERROR(WriteBytes(DigestPath(out_dir, r), encoded));
    digest_bytes += encoded.size();
    raw_bytes += digest.raw_bytes_covered;
    ++routers;
  }
  if (routers == 0) return Status::NotFound("no traces in " + in_dir);
  std::printf("collect: %u digests (%s), %.1f MB traffic -> %.1f KB digests "
              "(%.0fx)\n",
              routers, unaligned ? "unaligned" : "aligned",
              static_cast<double>(raw_bytes) / 1e6,
              static_cast<double>(digest_bytes) / 1e3,
              static_cast<double>(raw_bytes) /
                  static_cast<double>(digest_bytes));
  return Status::Ok();
}

// ----------------------------------------------------------------------
// Stage 3: central analysis.
// ----------------------------------------------------------------------

// Continuous-operation replay: the digest files become the payload of
// every epoch in [0, ring_epochs) * stride, re-stamped per epoch, offered
// to an EpochRing. Prints one line per closed epoch plus the ring and
// tracker totals.
Status RunRingReplay(std::uint64_t ring_epochs, std::uint64_t stride,
                     const EpochRingOptions& options,
                     const AnalysisContext& context, FaultInjector* injector,
                     std::uint32_t num_digest_files,
                     const std::string& in_dir) {
  std::vector<std::vector<std::uint8_t>> payloads(num_digest_files);
  for (std::uint32_t r = 0; r < num_digest_files; ++r) {
    DCS_RETURN_IF_ERROR(ReadBytes(DigestPath(in_dir, r), &payloads[r]));
  }

  EpochRing ring(options, context);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t i = 0; i < ring_epochs; ++i) {
    const std::uint64_t epoch = i * stride;
    for (std::uint32_t r = 0; r < num_digest_files; ++r) {
      std::vector<std::vector<std::uint8_t>> delivered;
      std::vector<std::uint8_t> stamped =
          FaultInjector::RewriteEpoch(payloads[r], epoch);
      if (injector != nullptr) {
        delivered = injector->Apply(r, stamped);
      } else {
        delivered.push_back(std::move(stamped));
      }
      for (const std::vector<std::uint8_t>& message : delivered) {
        Digest digest;
        Status status = Digest::Decode(message, &digest);
        if (status.ok()) status = ring.Offer(std::move(digest));
        if (status.ok()) {
          ++accepted;
        } else {
          ++rejected;
        }
      }
    }
  }
  ring.Drain();

  const std::vector<DcsReport> reports = ring.TakeReports();
  std::printf("ring: %s policy, capacity %zu, %llu offered epochs "
              "(stride %llu), %llu digests accepted, %llu rejected\n",
              ShedPolicyName(options.policy), options.capacity,
              static_cast<unsigned long long>(ring_epochs),
              static_cast<unsigned long long>(stride),
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(rejected));
  for (const DcsReport& report : reports) {
    const char* disposition = report.shed               ? "shed"
                              : report.degraded_analysis ? "degraded"
                                                         : "analyzed";
    std::printf("  epoch %llu: %s, %llu digests, aligned %s, unaligned %s\n",
                static_cast<unsigned long long>(report.epoch_id), disposition,
                static_cast<unsigned long long>(report.digests_accepted),
                report.aligned.common_content_detected ? "DETECTED" : "clean",
                report.unaligned.common_content_detected ? "DETECTED"
                                                         : "clean");
  }
  const RingStats& stats = ring.stats();
  std::printf("ring stats: %llu analyzed, %llu shed, %llu degraded, "
              "%llu blocked advances, max in flight %zu\n",
              static_cast<unsigned long long>(stats.epochs_analyzed),
              static_cast<unsigned long long>(stats.epochs_shed),
              static_cast<unsigned long long>(stats.epochs_degraded),
              static_cast<unsigned long long>(stats.blocked_advances),
              stats.max_in_flight);
  std::printf("tracker: %llu epochs, %llu gaps, %s\n",
              static_cast<unsigned long long>(ring.tracker().epochs_seen()),
              static_cast<unsigned long long>(ring.tracker().gaps_seen()),
              ring.tracker().PersistentDetection() ? "PERSISTENT ALARM"
                                                   : "no persistent alarm");
  return Status::Ok();
}

Status CmdAnalyze(Flags& flags) {
  const std::string in_dir = flags.String("in-dir", "");
  bool unaligned = false;
  const Status mode_status = ReadMode(flags, &unaligned);

  AlignedPipelineOptions aligned;
  flags.Int("n-prime", 128, 2, kNoMax, &aligned.n_prime);
  aligned.detector.first_iteration_hopefuls = aligned.n_prime;
  aligned.detector.hopefuls = aligned.n_prime / 2;

  UnalignedPipelineOptions unaligned_opts;
  flags.Int("er-threshold", 0, 0, kNoMax, &unaligned_opts.er_threshold);
  flags.Int("beta", 12, 1, kNoMax, &unaligned_opts.detector.beta);
  flags.Int("expand-min-edges", 2, 0, kNoMax,
            &unaligned_opts.detector.expand_min_edges);

  std::size_t threads = 1;
  flags.Int("threads", 1, 1, kMaxThreads, &threads);
  // Hardened ingestion: either flag opts in. Rejections are reported and
  // survived instead of aborting the run.
  IngestOptions ingest;
  flags.Int("expected-routers", 0, 0, kNoMax, &ingest.expected_routers);
  const bool has_fault_plan = flags.Has("fault-plan");
  const std::string fault_plan_text = flags.String("fault-plan", "");
  std::uint64_t expected_epoch = 0;
  flags.Int("expected-epoch", 0, 0, kNoMax, &expected_epoch);

  std::uint64_t ring_epochs = 0;
  flags.Int("ring-epochs", 0, 0, kNoMax, &ring_epochs);
  EpochRingOptions ring_options;
  flags.Int("ring-capacity", 4, 1, kMaxRingCapacity, &ring_options.capacity);
  const std::string policy = flags.String("shed-policy", "block");
  std::uint64_t stride = 1;
  flags.Int("epoch-stride", 1, 1, kNoMax, &stride);
  DCS_RETURN_IF_ERROR(flags.Finish());
  DCS_RETURN_IF_ERROR(mode_status);
  DCS_RETURN_IF_ERROR(ParseShedPolicy(policy, &ring_options.policy));
  if (in_dir.empty()) return Status::InvalidArgument("--in-dir required");

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const AnalysisContext context{pool.get()};
  const bool hardened = ingest.expected_routers > 0 || has_fault_plan;
  if (hardened) {
    // Pin the reference epoch instead of locking to the first arrival: a
    // forged epoch_id in the first message must not get every honest
    // router quarantined as "stale". The collectors in this repo always
    // stamp epoch 0, so 0 is the right default.
    ingest.lock_epoch_to_first = false;
    ingest.expected_epoch = expected_epoch;
  }

  // The plan needs the router count up front: count the digest files.
  std::uint32_t num_digest_files = 0;
  while (std::filesystem::exists(DigestPath(in_dir, num_digest_files))) {
    ++num_digest_files;
  }
  if (num_digest_files == 0) {
    return Status::NotFound("no digests in " + in_dir);
  }

  std::unique_ptr<FaultInjector> injector;
  if (has_fault_plan) {
    FaultSpec spec;
    DCS_RETURN_IF_ERROR(FaultSpec::Parse(fault_plan_text, &spec));
    FaultPlan plan = MaterializeFaultPlan(spec, num_digest_files);
    std::printf("fault plan: %s\n", plan.ToString().c_str());
    injector = std::make_unique<FaultInjector>(std::move(plan));
  }

  if (ring_epochs > 0) {
    ring_options.aligned = aligned;
    ring_options.aligned.incremental_weights = true;
    ring_options.unaligned = unaligned_opts;
    ring_options.ingest = ingest;
    return RunRingReplay(ring_epochs, stride, ring_options, context,
                         injector.get(), num_digest_files, in_dir);
  }

  DcsMonitor monitor(aligned, unaligned_opts, context, ingest);
  std::uint32_t accepted = 0;
  for (std::uint32_t r = 0; r < num_digest_files; ++r) {
    std::vector<std::uint8_t> bytes;
    DCS_RETURN_IF_ERROR(ReadBytes(DigestPath(in_dir, r), &bytes));
    std::vector<std::vector<std::uint8_t>> delivered;
    if (injector != nullptr) {
      delivered = injector->Apply(r, bytes);
    } else {
      delivered.push_back(std::move(bytes));
    }
    for (const std::vector<std::uint8_t>& message : delivered) {
      const Status status = monitor.AddEncodedDigest(message);
      if (status.ok()) {
        ++accepted;
      } else if (hardened) {
        std::printf("analyze: router %u message rejected: %s\n", r,
                    status.ToString().c_str());
      } else {
        return status;
      }
    }
  }
  std::printf("analyze: %u digests loaded\n", accepted);
  if (hardened) {
    std::printf("%s\n", monitor.ingest_stats().ToString().c_str());
  }

  if (unaligned) {
    const UnalignedReport report = monitor.AnalyzeUnaligned();
    std::printf("%s\n", report.ToString().c_str());
    if (report.common_content_detected) {
      std::printf("routers:");
      for (std::uint32_t r : report.routers) std::printf(" %u", r);
      std::printf("\nclusters: %zu\n", report.clusters.size());
    }
  } else {
    const AlignedReport report = monitor.AnalyzeAligned();
    std::printf("%s\n", report.ToString().c_str());
    if (report.common_content_detected) {
      std::printf("routers:");
      for (std::uint32_t r : report.routers) std::printf(" %u", r);
      std::printf("\nsignature columns: %zu\n",
                  report.signature_columns.size());
    }
  }
  return Status::Ok();
}

// ----------------------------------------------------------------------
// Stage 2.5: ship digests to a remote analysis center (dcs_ingestd).
// ----------------------------------------------------------------------

Status CmdSend(Flags& flags) {
  const std::string in_dir = flags.String("in-dir", "");
  const std::string uds = flags.String("uds", "");
  std::uint16_t port = 0;
  flags.Int("tcp-port", 0, 1, 65535, &port);
  const std::string host = flags.String("host", "127.0.0.1");
  const std::string codec_name = flags.String("codec", "auto");
  std::uint64_t epochs = 1;
  flags.Int("epochs", 1, 1, kNoMax, &epochs);
  std::uint64_t stride = 1;
  flags.Int("epoch-stride", 1, 1, kNoMax, &stride);
  // --coalesce-bytes batches frames on the sender before each socket write
  // (0 = ship every frame immediately); the fan-in knob for runs that
  // replay many epochs per connection.
  SenderOptions sender_options;
  flags.Int("coalesce-bytes", 0, 0, kNoMax, &sender_options.coalesce_bytes);
  DCS_RETURN_IF_ERROR(flags.Finish());
  if (in_dir.empty()) return Status::InvalidArgument("--in-dir required");
  if (uds.empty() && port == 0) {
    return Status::InvalidArgument("--uds or --tcp-port required");
  }
  CodecMode mode;
  if (codec_name == "raw") {
    mode = CodecMode::kRaw;
  } else if (codec_name == "sparse") {
    mode = CodecMode::kSparse;
  } else if (codec_name == "auto") {
    mode = CodecMode::kAuto;
  } else {
    return Status::InvalidArgument("--codec must be raw|sparse|auto");
  }

  std::vector<Digest> digests;
  for (std::uint32_t r = 0;; ++r) {
    std::vector<std::uint8_t> bytes;
    const Status status = ReadBytes(DigestPath(in_dir, r), &bytes);
    if (status.code() == Status::Code::kNotFound) break;
    DCS_RETURN_IF_ERROR(status);
    Digest digest;
    DCS_RETURN_IF_ERROR(Digest::Decode(bytes, &digest));
    digests.push_back(std::move(digest));
  }
  if (digests.empty()) return Status::NotFound("no digests in " + in_dir);

  DigestSender sender;
  if (!uds.empty()) {
    DCS_RETURN_IF_ERROR(DigestSender::ConnectUds(uds, &sender, sender_options));
  } else {
    DCS_RETURN_IF_ERROR(
        DigestSender::ConnectTcp(host, port, &sender, sender_options));
  }
  // Epoch-major, router-minor: the canonical replay order, so the server's
  // report stream is comparable with `analyze --ring-epochs`.
  for (std::uint64_t e = 0; e < epochs; ++e) {
    for (Digest& digest : digests) {
      digest.epoch_id = e * stride;
      DCS_RETURN_IF_ERROR(sender.Send(digest, mode));
    }
  }
  DCS_RETURN_IF_ERROR(sender.Flush());
  const SenderStats& stats = sender.stats();
  std::printf("send: %llu frames (%llu raw, %llu sparse), %llu bytes, "
              "codec %s\n",
              static_cast<unsigned long long>(stats.frames_sent),
              static_cast<unsigned long long>(stats.raw_frames),
              static_cast<unsigned long long>(stats.sparse_frames),
              static_cast<unsigned long long>(stats.bytes_sent),
              CodecModeName(mode));
  sender.Close();
  return Status::Ok();
}

Status CmdDemo(Flags& flags) {
  DCS_RETURN_IF_ERROR(flags.Finish());
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dcs_workbench_demo")
          .string();
  std::filesystem::remove_all(dir);
  std::printf("== demo in %s ==\n", dir.c_str());
  const char* synth_argv[] = {"--out-dir", dir.c_str()};
  Flags synth(2, synth_argv, 0);
  DCS_RETURN_IF_ERROR(CmdSynthesize(synth));
  const char* dir_argv[] = {"--in-dir", dir.c_str()};
  Flags collect(2, dir_argv, 0);
  DCS_RETURN_IF_ERROR(CmdCollect(collect));
  Flags analyze(2, dir_argv, 0);
  return CmdAnalyze(analyze);
}

// Writes the final registry snapshot: JSON lines to `out` when given,
// otherwise a summary table on stdout.
Status DumpMetrics(const std::string& out) {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  if (out.empty()) {
    std::printf("\n== metrics ==\n");
    PrintSnapshotTable(snapshot, std::cout);
    return Status::Ok();
  }
  DCS_RETURN_IF_ERROR(WriteSnapshotFile(snapshot, out));
  std::printf("metrics: wrote %zu metrics to %s\n", snapshot.entries.size(),
              out.c_str());
  return Status::Ok();
}

void PrintUsage() {
  std::printf(
      "usage: dcs_workbench <synthesize|collect|analyze|send|demo> "
      "[--flags]\n"
      "       [--metrics] [--metrics-out <path>]\n"
      "see the comment block at the top of tools/dcs_workbench.cc\n");
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    PrintUsage();
    return 0;
  }
  Flags flags(argc, argv, 2);
  const std::string metrics_out = flags.String("metrics-out", "");
  const bool metrics = flags.Switch("metrics") || flags.Has("metrics-out");
  if (metrics) MetricsRegistry::Global().set_enabled(true);
  Status status;
  if (command == "synthesize") {
    status = CmdSynthesize(flags);
  } else if (command == "collect") {
    status = CmdCollect(flags);
  } else if (command == "analyze") {
    status = CmdAnalyze(flags);
  } else if (command == "send") {
    status = CmdSend(flags);
  } else if (command == "demo") {
    status = CmdDemo(flags);
  } else {
    PrintUsage();
    return 1;
  }
  if (status.ok() && metrics) status = DumpMetrics(metrics_out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) { return dcs::Main(argc, argv); }
