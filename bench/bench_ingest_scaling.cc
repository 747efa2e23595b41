// Ingest-plane strong scaling: frames/sec through the multi-threaded
// IngestServer (leader poll thread + worker drain stage, ingest_server.h)
// at 1/2/4/8 server threads, with 8 concurrent sender connections shipping
// pre-encoded frames over a Unix-domain socket.
//
// The measured work is the server's receive path — chunked socket reads,
// frame checksum validation, strict payload decode, ordered ring offers —
// with analysis cost held to the floor: the ring runs at the minimum
// analysis budget with kDropOldest and a deliberately tiny detector
// configuration, so closing an epoch costs a screen over 8 rows, dwarfed
// by parsing its 64 KiB of frames. Senders cost nothing but the syscalls
// (their streams are fully encoded before the clock starts).
//
// Every configuration must ingest the identical frame count; the bench
// exits nonzero if any frame goes missing (a fast server that drops frames
// would be worthless). Throughput is bounded by the machine's core count:
// on a single-core container the multi-thread rows measure the pool's
// scheduling overhead, not scaling.
//
// Flags (strict, bench::FinishFlags: a bad flag exits 2):
//   --smoke        Small frame count (the CI perf-gate pass).
//   --out <path>   JSON-lines snapshot (default BENCH_ingest_scaling.json).

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analysis_context.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "dcs/epoch_ring.h"
#include "netio/digest_sender.h"
#include "netio/dispatch.h"
#include "netio/frame.h"
#include "netio/ingest_server.h"
#include "obs/metrics.h"

namespace {

constexpr std::uint32_t kConnections = 8;
constexpr std::size_t kBits = 65536;  // 8 KiB payload per aligned digest.

// One connection's whole wire stream, pre-encoded: `epochs` aligned
// digests for router `router`, framed back to back.
std::vector<std::uint8_t> EncodeStream(std::uint32_t router,
                                       std::uint64_t epochs, dcs::Rng* rng) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t e = 0; e < epochs; ++e) {
    dcs::Digest digest;
    digest.router_id = router;
    digest.epoch_id = e;
    digest.kind = dcs::DigestKind::kAligned;
    digest.packets_covered = 1000;
    digest.raw_bytes_covered = 536000;
    dcs::BitVector row(kBits);
    std::uint64_t* words = row.mutable_words();
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      words[w] = rng->Next() & rng->Next();  // ~1/4 fill.
    }
    digest.rows.push_back(std::move(row));
    const std::vector<std::uint8_t> payload =
        dcs::EncodeDigestPayload(digest, dcs::DigestCodecId::kRaw);
    const std::vector<std::uint8_t> frame = dcs::EncodeFrame(
        dcs::DigestCodecId::kRaw, router, e, payload);
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  return stream;
}

// Runs one full ingest at `server_threads`; returns elapsed seconds.
// Exits the process on any dropped frame.
double RunOnce(std::size_t server_threads,
               const std::vector<std::vector<std::uint8_t>>& streams,
               std::uint64_t total_frames) {
  using namespace dcs;
  // Minimum analysis budget + drop-oldest + a tiny detector: the clock
  // sees the ingest path, not the analysis engines (they have their own
  // scaling bench, bench_parallel_unaligned).
  EpochRingOptions ring_options;
  ring_options.capacity = 4;
  ring_options.policy = ShedPolicy::kDropOldest;
  ring_options.analysis_budget_per_offer = 1;
  ring_options.aligned.sketch.num_bits = kBits;
  ring_options.aligned.n_prime = 16;
  ring_options.aligned.detector.first_iteration_hopefuls = 16;
  ring_options.aligned.detector.hopefuls = 8;
  ring_options.aligned.incremental_weights = true;
  EpochRing ring(ring_options, AnalysisContext{});

  std::unique_ptr<ThreadPool> pool;
  if (server_threads > 1) pool = std::make_unique<ThreadPool>(server_threads);
  FrameDispatcher dispatcher(&ring, pool.get());

  IngestServerOptions options;
  options.pool = pool.get();
  // Large read chunks: the point is frame-parse throughput, so each drain
  // task should do kernel-buffer-sized work, not poll-round bookkeeping.
  options.read_chunk_bytes = 256 * 1024;
  options.poll_timeout_ms = 5;
  options.after_round = [&dispatcher, total_frames]() {
    return dispatcher.stats().frames < total_frames;
  };
  IngestServer server(options, &dispatcher);

  static int counter = 0;
  const std::string uds_path =
      (std::filesystem::temp_directory_path() /
       ("dcs_bench_ingest_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++) + ".sock"))
          .string();
  if (!server.ListenUds(uds_path).ok()) {
    std::fprintf(stderr, "FATAL: cannot listen on %s\n", uds_path.c_str());
    std::exit(1);
  }

  const double t0 = dcs::bench::NowSeconds();
  Status serve_status;
  std::thread serve_thread(
      [&server, &serve_status] { serve_status = server.Serve(); });
  std::vector<std::thread> senders;
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    senders.emplace_back([&uds_path, &streams, c] {
      DigestSender sender;
      if (!DigestSender::ConnectUds(uds_path, &sender).ok()) {
        std::fprintf(stderr, "FATAL: sender %u cannot connect\n", c);
        std::exit(1);
      }
      if (!sender.SendRaw(streams[c]).ok()) {
        std::fprintf(stderr, "FATAL: sender %u send failed\n", c);
        std::exit(1);
      }
      sender.Close();
    });
  }
  for (std::thread& t : senders) t.join();
  serve_thread.join();  // after_round stops once every frame landed.
  const double elapsed = dcs::bench::NowSeconds() - t0;

  if (!serve_status.ok()) {
    std::fprintf(stderr, "FATAL: serve: %s\n",
                 serve_status.ToString().c_str());
    std::exit(1);
  }
  const DispatchStats& stats = dispatcher.stats();
  if (stats.frames != total_frames || stats.frame_rejects != 0 ||
      stats.decode_failures != 0 || stats.digests_offered != total_frames) {
    std::fprintf(stderr,
                 "FATAL: t=%zu ingested %llu/%llu frames "
                 "(%llu rejects, %llu decode failures)\n",
                 server_threads,
                 static_cast<unsigned long long>(stats.frames),
                 static_cast<unsigned long long>(total_frames),
                 static_cast<unsigned long long>(stats.frame_rejects),
                 static_cast<unsigned long long>(stats.decode_failures));
    std::exit(1);
  }
  return elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  Flags flags(argc, argv, 1);
  const bool smoke = flags.Switch("smoke");
  const std::string out_path = flags.String("out", "BENCH_ingest_scaling.json");
  const int rc =
      bench::FinishFlags(flags, argv[0], "[--smoke] [--out <path>]");
  if (rc >= 0) return rc;

  const BenchScale scale = BenchScaleFromEnv();
  bench::Banner("ingest plane", "multi-threaded server strong scaling",
                scale);

  const std::uint64_t epochs_per_conn =
      smoke ? 60 : (scale == BenchScale::kPaper ? 4000 : 1000);
  const int reps = smoke ? 1 : 3;
  const std::uint64_t total_frames = kConnections * epochs_per_conn;
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};

  Rng rng(bench::EnvSeed("DCS_SEED", 47));
  std::vector<std::vector<std::uint8_t>> streams;
  std::uint64_t total_bytes = 0;
  for (std::uint32_t c = 0; c < kConnections; ++c) {
    streams.push_back(EncodeStream(c, epochs_per_conn, &rng));
    total_bytes += streams.back().size();
  }
  std::printf("%llu frames over %u connections, %.1f MiB on the wire\n",
              static_cast<unsigned long long>(total_frames), kConnections,
              static_cast<double>(total_bytes) / (1024.0 * 1024.0));

  MetricsRegistry::Global().set_enabled(true);

  TablePrinter table({"threads", "seconds", "frames/s", "MiB/s", "speedup"});
  double single_fps = 0.0;
  for (const std::size_t threads : thread_counts) {
    // Best of `reps`: the quantity of interest is what the pipeline can
    // sustain, not the scheduler noise of a loaded CI box.
    double best = -1.0;
    for (int r = 0; r < reps; ++r) {
      const double elapsed = RunOnce(threads, streams, total_frames);
      if (best < 0.0 || elapsed < best) best = elapsed;
    }
    const double fps = static_cast<double>(total_frames) / best;
    if (threads == 1) single_fps = fps;
    const double speedup = fps / single_fps;
    table.AddRow({std::to_string(threads), TablePrinter::Fmt(best, 3),
                  TablePrinter::Fmt(fps, 0),
                  TablePrinter::Fmt(static_cast<double>(total_bytes) / best /
                                        (1024.0 * 1024.0),
                                    1),
                  TablePrinter::Fmt(speedup, 2)});
    const std::string prefix =
        "bench.ingest_scaling.t" + std::to_string(threads) + ".";
    ObsGauge(prefix + "frames_per_sec").Set(fps);
    ObsGauge(prefix + "speedup").Set(speedup);
  }
  table.Print(std::cout);
  std::printf("\nEvery configuration ingested all %llu frames with zero "
              "rejects;\nthe report streams are covered by the loopback "
              "differential suite, not here.\n",
              static_cast<unsigned long long>(total_frames));

  return bench::WriteSnapshot(out_path);
}
