// pipebench_server — the system under test: the analysis center
// (IngestServer -> FrameDispatcher -> EpochRing -> DcsMonitor) built from the
// library's public classes, configured by workload name so the load
// generator's in-process reference runs the identical analysis.
//
//   pipebench_server --workload <name> --uds <path> [--quick] [--threads N]
//                    [--trace]
//
// Speaks a line protocol on stdout (one line per event, flushed):
//   READY                          listening
//   ACK <epoch> <mono_ns>          every router's digest of <epoch> accepted
//   REPORT <epoch> <mono_ns> <cpu_ns> <report>   a report left the server
//   METRIC <name> <count|value> <sum>            (--trace) registry dump
//   DONE <key>=<value> ...         final counters, after the drain
// Exits once every accepted connection has hung up, after closing the
// still-open epochs at full fidelity.

#include <time.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>

#include "analysis/analysis_context.h"
#include "common/thread_pool.h"
#include "dcs/epoch_ring.h"
#include "netio/dispatch.h"
#include "netio/ingest_server.h"
#include "obs/metrics.h"
#include "workload.h"

namespace pipebench {
namespace {

std::uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// VmHWM of this process in KiB (0 when unreadable).
std::uint64_t PeakRssKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

void EmitReport(const dcs::DcsReport& report) {
  const std::uint64_t now = MonoNs();
  std::printf("REPORT %" PRIu64 " %" PRIu64 " %" PRIu64 " %s\n",
              report.epoch_id, now, CpuNs(), SerializeReport(report).c_str());
}

void DumpMetrics() {
  for (const dcs::MetricsSnapshot::Entry& e :
       dcs::MetricsRegistry::Global().Snapshot().entries) {
    switch (e.type) {
      case dcs::MetricType::kCounter:
        std::printf("METRIC %s %" PRIu64 " 0\n", e.name.c_str(),
                    e.counter_value);
        break;
      case dcs::MetricType::kGauge:
        std::printf("METRIC %s %.17g 0\n", e.name.c_str(), e.gauge_value);
        break;
      default:
        std::printf("METRIC %s %" PRIu64 " %" PRIu64 "\n", e.name.c_str(),
                    e.hist_count, e.hist_sum);
        break;
    }
  }
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string uds;
  bool quick = false;
  bool trace = false;
  long threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--uds" && i + 1 < argc) {
      uds = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      char* end = nullptr;
      threads = std::strtol(argv[++i], &end, 10);
      if (*end != '\0' || threads < 1 || threads > 64) {
        std::fprintf(stderr, "--threads must be 1..64\n");
        return 2;
      }
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--trace") {
      trace = true;
    } else {
      std::fprintf(stderr, "pipebench_server: bad argument %s\n", arg.c_str());
      return 2;
    }
  }
  Geometry geometry;
  if (uds.empty() || !MakeGeometry(workload, quick, &geometry)) {
    std::fprintf(stderr, "pipebench_server: need --workload <known> --uds\n");
    return 2;
  }
  if (trace) dcs::MetricsRegistry::Global().set_enabled(true);

  // One pool for analysis and for the server's read stage, as dcs_ingestd
  // runs it when --server-threads equals --threads.
  std::unique_ptr<dcs::ThreadPool> pool;
  dcs::AnalysisContext context;
  if (threads > 1) {
    pool = std::make_unique<dcs::ThreadPool>(static_cast<std::size_t>(threads));
    context.pool = pool.get();
  }
  dcs::EpochRing ring(RingOptions(geometry), context);
  dcs::FrameDispatcher dispatcher(&ring, pool.get());

  std::uint64_t next_ack = 0;
  std::uint64_t rounds = 0;
  std::uint64_t reports = 0;
  const dcs::IngestServer* server_ptr = nullptr;
  dcs::IngestServerOptions options;
  options.pool = pool.get();
  options.after_round = [&]() {
    ++rounds;
    while (true) {
      const dcs::DcsMonitor* monitor = ring.monitor_for_epoch(next_ack);
      if (monitor == nullptr || monitor->ingest_stats().accepted <
                                    geometry.routers * DigestsPerRouter(geometry)) {
        break;
      }
      std::printf("ACK %" PRIu64 " %" PRIu64 "\n", next_ack, MonoNs());
      ++next_ack;
    }
    for (const dcs::DcsReport& report : ring.TakeReports()) {
      EmitReport(report);
      ++reports;
      if (report.epoch_id >= next_ack) next_ack = report.epoch_id + 1;
    }
    std::fflush(stdout);
    const dcs::IngestServerStats stats = server_ptr->stats();
    return !(stats.connections_accepted > 0 &&
             stats.connections_accepted == stats.connections_closed);
  };
  dcs::IngestServer server(options, &dispatcher);
  server_ptr = &server;
  dcs::Status status = server.ListenUds(uds);
  if (!status.ok()) {
    std::fprintf(stderr, "pipebench_server: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("READY\n");
  std::fflush(stdout);
  status = server.Serve();
  if (!status.ok()) {
    std::fprintf(stderr, "pipebench_server: %s\n", status.ToString().c_str());
    return 1;
  }
  ring.Drain();
  for (const dcs::DcsReport& report : ring.TakeReports()) {
    EmitReport(report);
    ++reports;
  }
  if (trace) DumpMetrics();
  const dcs::DispatchStats& d = dispatcher.stats();
  const dcs::RingStats& r = ring.stats();
  const dcs::IngestServerStats s = server.stats();
  std::printf(
      "DONE frames=%" PRIu64 " frame_rejects=%" PRIu64 " decode_failures=%" PRIu64
      " identity_mismatches=%" PRIu64 " raw_frames=%" PRIu64
      " sparse_frames=%" PRIu64 " payload_bytes=%" PRIu64
      " digests_offered=%" PRIu64 " digests_accepted=%" PRIu64
      " digests_rejected=%" PRIu64 " stale_digests=%" PRIu64
      " ring_rejected=%" PRIu64 " epochs_analyzed=%" PRIu64
      " epochs_shed=%" PRIu64 " epochs_degraded=%" PRIu64 " reports=%" PRIu64
      " bytes_rx=%" PRIu64 " poll_rounds=%" PRIu64 " penalty_closes=%" PRIu64
      " cpu_ns=%" PRIu64 " peak_rss_kb=%" PRIu64 "\n",
      d.frames, d.frame_rejects, d.decode_failures, d.identity_mismatches,
      d.raw_frames, d.sparse_frames, d.payload_bytes, d.digests_offered,
      d.digests_accepted, d.digests_rejected, r.stale_digests,
      r.digests_rejected, r.epochs_analyzed, r.epochs_shed, r.epochs_degraded,
      reports, s.bytes_received, rounds, s.penalty_closes, CpuNs(),
      PeakRssKb());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) { return pipebench::Main(argc, argv); }
