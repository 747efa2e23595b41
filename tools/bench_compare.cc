// Diffs two bench snapshots (JSON lines from the obs exporter) and fails
// when the current run regressed past noise-aware thresholds. Usage:
//
//   bench_compare <baseline.json> <current.json> [--timing-factor <f>]
//                 [--memory-tolerance <frac>] [--quality-tolerance <frac>]
//
// Only bench.-prefixed gauges present in BOTH files are compared, so a
// committed full-scale snapshot can gate a CI smoke run as long as the
// bench emits scale-independent metric names for the shared scenarios
// (see docs/STREAMING.md and the bench.* catalog in docs/OBSERVABILITY.md).
// Each factor must be a positive number, parsed whole (dcs::ParseNumber):
// "x", "2x" or "0" is a usage error.
// Exit codes: 0 clean, 1 regression, 2 usage/IO error, 3 no overlap.

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "bench_compare_lib.h"
#include "common/config.h"

int main(int argc, char** argv) {
  using namespace dcs::bench_compare;
  BenchCompareOptions options;
  std::string baseline_path;
  std::string current_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    double* factor = arg == "--timing-factor"       ? &options.timing_factor
                     : arg == "--memory-tolerance"  ? &options.memory_tolerance
                     : arg == "--quality-tolerance" ? &options.quality_tolerance
                                                    : nullptr;
    if (factor != nullptr) {
      if (++i >= argc || !dcs::ParseNumber(argv[i], factor) || *factor <= 0.0) {
        std::fprintf(stderr, "%s needs a positive number\n", argv[i - 1]);
        return 2;
      }
      continue;
    }
    if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s <baseline.json> <current.json> "
                   "[--timing-factor <f>] [--memory-tolerance <frac>] "
                   "[--quality-tolerance <frac>]\n",
                   argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
    if (baseline_path.empty()) {
      baseline_path = argv[i];
    } else if (current_path.empty()) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (current_path.empty()) {
    std::fprintf(stderr, "usage: %s <baseline.json> <current.json>\n",
                 argv[0]);
    return 2;
  }

  dcs::MetricsSnapshot baseline;
  dcs::MetricsSnapshot current;
  std::string error;
  if (!LoadSnapshotFile(baseline_path, &baseline, &error) ||
      !LoadSnapshotFile(current_path, &current, &error)) {
    std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
    return 2;
  }

  const BenchCompareResult result =
      CompareSnapshots(baseline, current, options);
  std::fputs(FormatResult(result).c_str(), stdout);
  if (result.deltas.empty()) return 3;
  return result.num_regressions > 0 ? 1 : 0;
}
