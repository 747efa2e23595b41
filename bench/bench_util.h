#ifndef DCS_BENCH_BENCH_UTIL_H_
#define DCS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "common/config.h"
#include "obs/exporter.h"
#include "obs/metrics.h"

namespace dcs {
namespace bench {

/// Prints the standard experiment banner: which paper artifact this binary
/// regenerates and at what scale it is running.
inline void Banner(const char* artifact, const char* description,
                   BenchScale scale) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("scale: %s   (set DCS_SCALE=paper for full scale, "
              "DCS_TRIALS=<k> to override trials)\n",
              BenchScaleName(scale).c_str());
  std::printf("==============================================================\n");
}

/// Monotonic wall-clock seconds.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RNG seed from the environment (DCS_SEED convention), as the unsigned
/// value Rng's constructor takes. Negative values wrap, which is fine for a
/// seed but is made explicit here so -Wsign-conversion stays clean.
inline std::uint64_t EnvSeed(const char* name, std::int64_t default_value) {
  return static_cast<std::uint64_t>(EnvInt64(name, default_value));
}

/// Trials with a scale-dependent default, overridable via DCS_TRIALS.
inline int Trials(BenchScale scale, int small_default, int paper_default) {
  const std::int64_t env = EnvInt64("DCS_TRIALS", 0);
  if (env > 0) return static_cast<int>(env);
  return scale == BenchScale::kPaper ? paper_default : small_default;
}

/// Ends a bench's flag reading (dcs::Flags): returns -1 to run the bench, 0
/// after printing `usage` for --help, and 2 after a flag error.
inline int FinishFlags(Flags& flags, const char* argv0, const char* usage) {
  const bool help = flags.Switch("help");
  const Status status = flags.Finish();
  if (!help && status.ok()) return -1;
  if (!help) std::fprintf(stderr, "%s\n", status.ToString().c_str());
  std::printf("usage: %s %s\n", argv0, usage);
  return help ? 0 : 2;
}

/// Writes the global registry's snapshot to `path` as JSON lines and
/// returns the bench's exit code: 0, or 1 when the file cannot be written.
inline int WriteSnapshot(const std::string& path) {
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const Status status = WriteSnapshotFile(snapshot, path);
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu metrics to %s\n", snapshot.entries.size(),
              path.c_str());
  return 0;
}

}  // namespace bench
}  // namespace dcs

#endif  // DCS_BENCH_BENCH_UTIL_H_
