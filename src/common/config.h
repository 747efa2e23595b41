#ifndef DCS_COMMON_CONFIG_H_
#define DCS_COMMON_CONFIG_H_

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dcs {

/// Scale regimes shared by the benchmark harnesses.
enum class BenchScale {
  kSmall,  ///< Laptop-safe defaults; each binary finishes in ~a minute.
  kPaper,  ///< Full paper-scale parameters (can take much longer).
};

/// Reads DCS_SCALE from the environment ("small" default, "paper").
BenchScale BenchScaleFromEnv();

/// The one parser for numbers in configuration text (Flags, EnvInt64,
/// EnvDouble, fault specs): parses all of `text` with std::from_chars.
/// False for an empty, partial ("8x", "1e3" as an integer), sign-only,
/// overflowing or non-finite value.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// Reads an integer environment variable, returning `fallback` when unset or
/// not a whole integer (ParseNumber).
std::int64_t EnvInt64(const char* name, std::int64_t fallback);

/// Reads a double environment variable, returning `fallback` when unset or
/// not a whole finite number (ParseNumber).
double EnvDouble(const char* name, double fallback);

/// Human-readable label ("small" / "paper") for bench headers.
std::string BenchScaleName(BenchScale scale);

/// Upper bound on every thread-count flag (--threads, --server-threads):
/// each thread is an OS thread, and no analysis stage scales past this.
inline constexpr std::int64_t kMaxThreads = 256;
/// Flags::Int's `max` for a flag bounded only by its type.
inline constexpr std::int64_t kNoMax = std::numeric_limits<std::int64_t>::max();

/// \brief Strict command-line flags: `--name value` pairs and bare
/// `--switch`es, each read by name with its accepted range spelled out.
///
/// A read returns the fallback on a bad value and keeps the first error for
/// Finish(), so a command reads every flag it knows, calls Finish() once,
/// and only then does any work. Finish() fails with InvalidArgument on a
/// positional argument, a repeated flag, a malformed or out-of-range number,
/// a value flag with no value, a switch given a value, and last on the
/// first flag (in argv order) that nothing read.
class Flags {
 public:
  /// Splits argv[first, argc): a token not starting with "--" is the value
  /// of the flag before it.
  Flags(int argc, const char* const* argv, int first);

  /// True when `--name` was given; does not count as reading it.
  bool Has(std::string_view name) const;
  /// True when the bare switch `--name` was given.
  bool Switch(std::string_view name);
  /// The value of `--name <value>`, or `fallback` when absent.
  std::string String(std::string_view name, std::string fallback);

  /// Sets `*out` to the integer value of `--name` if it lies in [min, max]
  /// (clamped to T's range), else to `fallback`.
  template <typename T>
  void Int(std::string_view name, std::type_identity_t<T> fallback,
           std::int64_t min, std::int64_t max, T* out) {
    static_assert(std::is_integral_v<T>);
    using Limits = std::numeric_limits<T>;
    min = std::max<std::int64_t>(min, Limits::min());
    if constexpr (std::in_range<std::int64_t>(Limits::max())) {
      max = std::min<std::int64_t>(max, Limits::max());
    }
    std::int64_t value = 0;
    *out = ReadInt(name, min, max, &value) ? static_cast<T>(value) : fallback;
  }

  /// Ok, or the first error described above.
  Status Finish() const;

 private:
  struct Entry {
    std::string name;
    std::optional<std::string> value;
    bool read = false;
  };

  // Marks `--name` read and returns it; null when absent.
  Entry* Read(std::string_view name);
  // The value of `--name`; null when absent or (an error) given without one.
  const std::string* Text(std::string_view name);
  // True with `*out` set when `--name` holds an integer in [min, max].
  bool ReadInt(std::string_view name, std::int64_t min, std::int64_t max,
               std::int64_t* out);
  void Fail(std::string message);

  std::vector<Entry> entries_;
  Status error_;
};

}  // namespace dcs

#endif  // DCS_COMMON_CONFIG_H_
