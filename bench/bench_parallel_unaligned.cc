// Section IV-D: strong-scaling of the unaligned analysis pipeline. Times
// BuildCorrelationGraph (row weights, lambda calibration, pair scan) and
// DetectUnalignedPattern (min-degree peel, survivor expansion, second
// core) — all sharded on the ThreadPool — at 1/2/4/8 threads against the
// serial engine, and asserts the graph edges and the detection are
// bit-identical before reporting a speedup (a fast wrong answer would be
// worthless).
//
// Flags (strict, bench::FinishFlags: a bad flag exits 2):
//   --smoke        128-group scenario (the CI scalar-kernels pass).
//   --out <path>   JSON-lines snapshot (default BENCH_parallel_unaligned.json).

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/lambda_table.h"
#include "analysis/unaligned_detector.h"
#include "analysis/unaligned_graph_builder.h"
#include "bench_util.h"
#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace {

// Group-major matrix of `groups` x `arrays` rows: ~1/4-full random rows
// (two ANDed random words per word) with a planted cluster — `planted`
// groups sharing `signal` common indices in their first array, the paper's
// common-content model at measurement scale.
dcs::BitMatrix PlantedGroupMatrix(std::size_t groups, std::size_t arrays,
                                  std::size_t bits, std::size_t planted,
                                  std::size_t signal, dcs::Rng* rng) {
  dcs::BitMatrix matrix(groups * arrays, bits);
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    dcs::BitVector& row = matrix.row(r);
    std::uint64_t* words = row.mutable_words();
    for (std::size_t w = 0; w < row.num_words(); ++w) {
      words[w] = rng->Next() & rng->Next();
    }
    if (bits % 64 != 0) {
      words[row.num_words() - 1] &= (1ULL << (bits % 64)) - 1;
    }
  }
  const std::size_t stride = groups / planted;
  for (std::size_t k = 0; k < planted; ++k) {
    const std::size_t row = (k * stride) * arrays;
    for (std::size_t s = 0; s < signal; ++s) {
      matrix.Set(row, (s * 797 + 31) % bits);  // Scattered shared content.
    }
  }
  return matrix;
}

bool SameDetection(const dcs::UnalignedDetection& a,
                   const dcs::UnalignedDetection& b) {
  return a.core == b.core && a.second_core == b.second_core &&
         a.detected == b.detected;
}

// One gauge per measured quantity, named so the JSON is self-describing:
// bench.parallel_unaligned.g<groups>.t<threads>.<quantity>.
void RecordGauge(std::size_t groups, const std::string& threads,
                 const char* quantity, double value) {
  const std::string name = "bench.parallel_unaligned.g" +
                           std::to_string(groups) + ".t" + threads + "." +
                           quantity;
  dcs::ObsGauge(name).Set(value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dcs;
  Flags flags(argc, argv, 1);
  const bool smoke = flags.Switch("smoke");
  const std::string out_path =
      flags.String("out", "BENCH_parallel_unaligned.json");
  const int rc =
      bench::FinishFlags(flags, argv[0], "[--smoke] [--out <path>]");
  if (rc >= 0) return rc;

  const BenchScale scale = BenchScaleFromEnv();
  bench::Banner("Section IV-D", "unaligned-analysis strong scaling", scale);

  // Full runs include the smoke scenario (128 groups) so a committed full
  // snapshot and a CI --smoke run share metric names for tools/bench_compare.
  const std::vector<std::size_t> group_counts =
      smoke ? std::vector<std::size_t>{128}
            : (scale == BenchScale::kPaper
                   ? std::vector<std::size_t>{128, 1024, 2048}
                   : std::vector<std::size_t>{128, 1024});
  const std::size_t arrays = 4;
  const std::size_t bits = 1024;
  const std::vector<std::size_t> thread_counts = {1, 2, 4, 8};

  MetricsRegistry::Global().set_enabled(true);

  Rng rng(bench::EnvSeed("DCS_SEED", 43));
  TablePrinter table(
      {"groups", "threads", "graph s", "detect s", "total s", "speedup"});
  for (std::size_t groups : group_counts) {
    const std::size_t planted = groups / 16;
    const BitMatrix matrix =
        PlantedGroupMatrix(groups, arrays, bits, planted, 160, &rng);

    // The pipeline's core-graph calibration: p* from the null edge
    // probability 8.2/n (Section IV-B).
    const double p_star = LambdaTable::PStarFromEdgeProb(
        8.2 / static_cast<double>(groups), arrays);
    GraphBuilderOptions builder;
    builder.arrays_per_group = arrays;
    UnalignedDetectorOptions detector;
    detector.beta = planted < 8 ? planted : planted - 4;
    detector.expand_min_edges = 2;

    const LambdaTable serial_lambda(bits, p_star);
    double t = bench::NowSeconds();
    const Graph reference_graph =
        BuildCorrelationGraph(matrix, serial_lambda, builder);
    const double serial_graph_s = bench::NowSeconds() - t;
    t = bench::NowSeconds();
    const UnalignedDetection reference =
        DetectUnalignedPattern(reference_graph, detector);
    const double serial_detect_s = bench::NowSeconds() - t;
    const double serial_total_s = serial_graph_s + serial_detect_s;
    if (reference.core.size() != detector.beta) {
      std::fprintf(stderr, "FATAL: serial core has %zu vertices, want %zu\n",
                   reference.core.size(), detector.beta);
      return 1;
    }
    table.AddRow({std::to_string(groups), "serial",
                  TablePrinter::Fmt(serial_graph_s, 3),
                  TablePrinter::Fmt(serial_detect_s, 3),
                  TablePrinter::Fmt(serial_total_s, 3), "1.00"});
    RecordGauge(groups, "serial", "graph_s", serial_graph_s);
    RecordGauge(groups, "serial", "detect_s", serial_detect_s);
    RecordGauge(groups, "serial", "total_s", serial_total_s);

    for (std::size_t threads : thread_counts) {
      ThreadPool pool(threads);
      GraphBuilderOptions pooled_builder = builder;
      pooled_builder.scan.pool = &pool;
      // A fresh table per run: calibration cost is part of the measurement.
      const LambdaTable lambda(bits, p_star);
      t = bench::NowSeconds();
      const Graph graph = BuildCorrelationGraph(matrix, lambda, pooled_builder);
      const double graph_s = bench::NowSeconds() - t;
      t = bench::NowSeconds();
      const UnalignedDetection detection =
          DetectUnalignedPattern(graph, detector, AnalysisContext{&pool});
      const double detect_s = bench::NowSeconds() - t;
      const double total_s = graph_s + detect_s;
      if (graph.edges() != reference_graph.edges()) {
        std::fprintf(stderr,
                     "FATAL: graph diverged at %zu threads, groups=%zu\n",
                     threads, groups);
        return 1;
      }
      if (!SameDetection(reference, detection)) {
        std::fprintf(stderr,
                     "FATAL: detection diverged at %zu threads, groups=%zu\n",
                     threads, groups);
        return 1;
      }
      const double speedup = serial_total_s / total_s;
      table.AddRow({std::to_string(groups), std::to_string(threads),
                    TablePrinter::Fmt(graph_s, 3),
                    TablePrinter::Fmt(detect_s, 3),
                    TablePrinter::Fmt(total_s, 3),
                    TablePrinter::Fmt(speedup, 2)});
      const std::string t_label = std::to_string(threads);
      RecordGauge(groups, t_label, "graph_s", graph_s);
      RecordGauge(groups, t_label, "detect_s", detect_s);
      RecordGauge(groups, t_label, "total_s", total_s);
      RecordGauge(groups, t_label, "speedup", speedup);
    }
  }
  table.Print(std::cout);
  std::printf(
      "\nAll graphs and detections bit-identical to the serial engine\n"
      "(edges, core, second core, detected set). Speedups are bounded by\n"
      "the machine's core count: on a single-core container every row\n"
      "measures scheduling overhead, not scaling.\n");

  return bench::WriteSnapshot(out_path);
}
