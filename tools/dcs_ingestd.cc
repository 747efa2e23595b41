// dcs_ingestd — the analysis center's framed digest ingestion daemon
// (docs/DISTRIBUTED.md).
//
// Listens on TCP (loopback) and/or a Unix-domain socket for digest frames
// (src/netio/frame.h), feeds them through the accept → parse → validate →
// dispatch pipeline into a continuous-operation EpochRing, and prints one
// line per closed epoch as reports stream out.
//
//   dcs_ingestd (--uds /tmp/dcs.sock | --tcp-port N [N=0: ephemeral, port
//       printed on stdout]) [--threads 1] [--server-threads <threads>]
//       [--ring-capacity 8]
//       [--shed-policy block|drop-oldest|degrade] [--analysis-budget 1]
//       [--expected-routers 0] [--n-prime 128] [--beta 12]
//       [--er-threshold 0] [--max-epochs 0] [--exit-on-idle]
//       [--max-rejects 64] [--metrics-out <path>]
//
// --max-epochs N exits after N epoch reports have streamed out;
// --exit-on-idle exits once every accepted connection has hung up (the
// scripted-run mode: senders connect, ship, disconnect, and the daemon
// closes the remaining epochs at full fidelity on the way out). With
// neither, runs until SIGINT/SIGTERM. The feeding side is
// `dcs_workbench send` or any DigestSender client.
//
//   dcs_ingestd --self-test
// Spins the full loopback pipeline in-process (server on an ephemeral UDS,
// a sender shipping synthesized digests, reports drained) and exits 0 on
// success — the ctest smoke that the daemon wiring works end to end.
//
// Flags are strict (dcs::Flags, src/common/config.h): an unknown or
// repeated flag, a malformed or out-of-range number (thread counts stop at
// kMaxThreads = 256), a value flag with no value, or a switch given a value
// prints an error naming the flag and exits 1 before any socket is bound.

#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis_context.h"
#include "common/config.h"
#include "common/thread_pool.h"
#include "dcs/epoch_ring.h"
#include "netio/digest_sender.h"
#include "netio/dispatch.h"
#include "netio/ingest_server.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "sketch/collector.h"
#include "traffic/content_catalog.h"
#include "traffic/trace_synthesizer.h"

namespace dcs {
namespace {

std::sig_atomic_t volatile g_signalled = 0;

void OnSignal(int) { g_signalled = 1; }

void PrintReport(const DcsReport& report) {
  const char* disposition = report.shed                ? "shed"
                            : report.degraded_analysis ? "degraded"
                                                       : "analyzed";
  std::printf("epoch %llu: %s, %llu digests (%llu rejected), %u routers, "
              "aligned %s, unaligned %s\n",
              static_cast<unsigned long long>(report.epoch_id), disposition,
              static_cast<unsigned long long>(report.digests_accepted),
              static_cast<unsigned long long>(report.digests_rejected),
              report.observed_routers,
              report.aligned.common_content_detected ? "DETECTED" : "clean",
              report.unaligned.common_content_detected ? "DETECTED" : "clean");
  std::fflush(stdout);
}

Status CmdServe(Flags& flags) {
  // Every flag is read and checked before a thread, socket or file exists.
  std::size_t threads = 1;
  flags.Int("threads", 1, 1, kMaxThreads, &threads);
  // --server-threads N > 1 fans connection reads + frame parsing out on a
  // worker pool per poll round; decoded digests still funnel through the
  // single ordered offer stage, so the report stream is unchanged (the
  // loopback differential suite is the proof). Defaults to --threads, so
  // one flag scales the whole daemon; the analysis pool doubles as the
  // read pool (the stages never overlap — both run inside the poll round).
  std::size_t server_threads = threads;
  flags.Int("server-threads", threads, 1, kMaxThreads, &server_threads);
  EpochRingOptions ring_options;
  flags.Int("ring-capacity", 8, 1, kMaxRingCapacity, &ring_options.capacity);
  const std::string policy = flags.String("shed-policy", "block");
  flags.Int("analysis-budget", 1, 1, kNoMax,
            &ring_options.analysis_budget_per_offer);
  flags.Int("n-prime", 128, 2, kNoMax, &ring_options.aligned.n_prime);
  flags.Int("er-threshold", 0, 0, kNoMax,
            &ring_options.unaligned.er_threshold);
  flags.Int("beta", 12, 1, kNoMax, &ring_options.unaligned.detector.beta);
  flags.Int("expected-routers", 0, 0, kNoMax,
            &ring_options.ingest.expected_routers);
  std::uint64_t max_epochs = 0;
  flags.Int("max-epochs", 0, 0, kNoMax, &max_epochs);
  const bool exit_on_idle = flags.Switch("exit-on-idle");
  IngestServerOptions server_options;
  flags.Int("max-rejects", 64, 0, kNoMax,
            &server_options.max_rejects_per_connection);
  const std::string uds = flags.String("uds", "");
  const bool tcp = flags.Has("tcp-port");
  std::uint16_t tcp_port = 0;
  flags.Int("tcp-port", 0, 0, 65535, &tcp_port);
  const std::string metrics_out = flags.String("metrics-out", "");
  DCS_RETURN_IF_ERROR(flags.Finish());
  DCS_RETURN_IF_ERROR(ParseShedPolicy(policy, &ring_options.policy));
  if (uds.empty() && !tcp) {
    return Status::InvalidArgument("--uds or --tcp-port required");
  }
  if (!metrics_out.empty()) MetricsRegistry::Global().set_enabled(true);

  ring_options.aligned.detector.first_iteration_hopefuls =
      ring_options.aligned.n_prime;
  ring_options.aligned.detector.hopefuls = ring_options.aligned.n_prime / 2;
  ring_options.aligned.incremental_weights = true;

  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  std::unique_ptr<ThreadPool> server_pool;
  if (server_threads > 1 && server_threads != threads) {
    server_pool = std::make_unique<ThreadPool>(server_threads);
  }
  EpochRing ring(ring_options, AnalysisContext{pool.get()});
  FrameDispatcher dispatcher(&ring, pool.get());

  std::uint64_t emitted = 0;
  const IngestServer* server_ptr = nullptr;
  server_options.pool =
      server_threads == threads ? pool.get() : server_pool.get();
  // Streams reports as their epochs close; stops on signal, --max-epochs,
  // or (with --exit-on-idle) once every accepted connection has hung up —
  // undrained epochs are then closed at full fidelity below. Runs on the
  // serve thread, the only thread that touches the ring.
  server_options.after_round = [&ring, &emitted, &server_ptr, max_epochs,
                                exit_on_idle]() {
    for (const DcsReport& report : ring.TakeReports()) {
      PrintReport(report);
      ++emitted;
    }
    if (g_signalled != 0) return false;
    if (max_epochs > 0 && emitted >= max_epochs) return false;
    if (exit_on_idle && server_ptr != nullptr) {
      const IngestServerStats& stats = server_ptr->stats();
      if (stats.connections_accepted > 0 &&
          stats.connections_accepted == stats.connections_closed) {
        return false;
      }
    }
    return true;
  };
  IngestServer server(server_options, &dispatcher);
  server_ptr = &server;

  if (!uds.empty()) {
    DCS_RETURN_IF_ERROR(server.ListenUds(uds));
    std::printf("listening on uds %s\n", uds.c_str());
  }
  if (tcp) {
    DCS_RETURN_IF_ERROR(server.ListenTcp(tcp_port));
    std::printf("listening on tcp 127.0.0.1:%u\n", server.bound_tcp_port());
  }
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  DCS_RETURN_IF_ERROR(server.Serve());

  // End of service: close out the still-open epochs at full fidelity.
  ring.Drain();
  for (const DcsReport& report : ring.TakeReports()) {
    PrintReport(report);
    ++emitted;
  }
  const DispatchStats& stats = dispatcher.stats();
  std::printf("ingestd: %llu frames (%llu rejects), %llu digests offered, "
              "%llu accepted, %llu rejected, %llu epochs reported\n",
              static_cast<unsigned long long>(stats.frames),
              static_cast<unsigned long long>(stats.frame_rejects),
              static_cast<unsigned long long>(stats.digests_offered),
              static_cast<unsigned long long>(stats.digests_accepted),
              static_cast<unsigned long long>(stats.digests_rejected),
              static_cast<unsigned long long>(emitted));
  if (metrics_out.empty()) return Status::Ok();
  return WriteSnapshotFile(MetricsRegistry::Global().Snapshot(), metrics_out);
}

// In-process loopback smoke: synthesize traffic, collect digests, serve on
// an ephemeral UDS, ship every digest through a real socket, and check the
// report stream arrived intact.
Status CmdSelfTest() {
  // The scenario mirrors tests/test_integration.cc's known-detectable
  // configuration: 25 of 30 routers carry a 20-packet aligned object.
  constexpr std::uint32_t kRouters = 30;
  constexpr std::uint64_t kEpochs = 3;

  ScenarioOptions scenario;
  scenario.num_routers = kRouters;
  scenario.background_packets_per_router = 8000;
  scenario.seed = 11;
  PlantedContent plant;
  plant.content_id = 77;
  plant.content_bytes = 536 * 20;
  for (std::uint32_t r = 0; r < 25; ++r) plant.router_ids.push_back(r);
  plant.aligned = true;
  scenario.planted = {plant};
  ContentCatalog catalog(1234);
  const std::vector<PacketTrace> traces = SynthesizeScenario(scenario, catalog);

  BitmapSketchOptions sketch;
  sketch.num_bits = 1 << 13;
  std::vector<Digest> digests;
  for (std::uint32_t r = 0; r < kRouters; ++r) {
    AlignedCollector collector(r, sketch);
    digests.push_back(
        collector.ProcessEpoch(traces[r].SplitIntoEpochs(traces[r].size())[0]));
  }

  EpochRingOptions ring_options;
  ring_options.capacity = 4;
  ring_options.aligned.sketch = sketch;
  ring_options.aligned.n_prime = 128;
  ring_options.aligned.detector.first_iteration_hopefuls = 128;
  ring_options.aligned.detector.hopefuls = 64;
  ring_options.aligned.incremental_weights = true;
  EpochRing ring(ring_options, AnalysisContext{});
  FrameDispatcher dispatcher(&ring, nullptr);
  IngestServerOptions server_options;
  IngestServer server(server_options, &dispatcher);

  const std::string uds_path =
      (std::filesystem::temp_directory_path() /
       ("dcs_ingestd_selftest_" + std::to_string(::getpid()) + ".sock"))
          .string();
  DCS_RETURN_IF_ERROR(server.ListenUds(uds_path));

  Status serve_status;
  std::thread serve_thread(
      [&server, &serve_status] { serve_status = server.Serve(); });

  Status send_status;
  {
    DigestSender sender;
    send_status = DigestSender::ConnectUds(uds_path, &sender);
    if (send_status.ok()) {
      for (std::uint64_t epoch = 0; epoch < kEpochs && send_status.ok();
           ++epoch) {
        for (Digest& digest : digests) {
          digest.epoch_id = epoch;
          const CodecMode mode =
              epoch % 2 == 0 ? CodecMode::kSparse : CodecMode::kRaw;
          send_status = sender.Send(digest, mode);
          if (!send_status.ok()) break;
        }
      }
    }
    // Sender closes here: the server sees EOF and flushes the connection.
  }
  // Wait for every digest to land, then stop the server. Repeated zero-delay
  // sleeps keep this a scheduling yield, not a timing assumption.
  const std::uint64_t expected = kRouters * kEpochs;
  while (send_status.ok() &&
         dispatcher.stats().digests_offered < expected &&
         serve_thread.joinable()) {
    std::this_thread::yield();
  }
  server.RequestStop();
  serve_thread.join();
  DCS_RETURN_IF_ERROR(serve_status);
  DCS_RETURN_IF_ERROR(send_status);

  ring.Drain();
  const std::vector<DcsReport> reports = ring.TakeReports();
  if (dispatcher.stats().digests_accepted != expected) {
    return Status::Internal("self-test: expected " + std::to_string(expected) +
                            " accepted digests, got " +
                            std::to_string(dispatcher.stats().digests_accepted));
  }
  if (reports.size() != kEpochs) {
    return Status::Internal("self-test: expected " + std::to_string(kEpochs) +
                            " reports, got " + std::to_string(reports.size()));
  }
  for (const DcsReport& report : reports) {
    if (report.digests_accepted != kRouters) {
      return Status::Internal("self-test: epoch report missing digests");
    }
    if (!report.aligned.common_content_detected) {
      return Status::Internal("self-test: planted content not detected");
    }
  }
  std::printf("self-test: %llu digests over loopback uds, %zu epoch reports, "
              "planted content detected in all\n",
              static_cast<unsigned long long>(expected), reports.size());
  return Status::Ok();
}

void PrintUsage() {
  std::printf(
      "usage: dcs_ingestd (--uds <path> | --tcp-port <port>) [--flags]\n"
      "       dcs_ingestd --self-test\n"
      "see the comment block at the top of tools/dcs_ingestd.cc\n");
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv, 1);
  if (flags.Switch("help")) {
    PrintUsage();
    return 0;
  }
  Status status;
  if (flags.Switch("self-test")) {
    status = flags.Finish();
    if (status.ok()) status = CmdSelfTest();
  } else {
    status = CmdServe(flags);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    if (status.code() == Status::Code::kInvalidArgument) PrintUsage();
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dcs

int main(int argc, char** argv) { return dcs::Main(argc, argv); }
