#include "common/config.h"

#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace dcs {
namespace {

TEST(ConfigTest, EnvInt64FallbackWhenUnset) {
  unsetenv("DCS_TEST_INT");
  EXPECT_EQ(EnvInt64("DCS_TEST_INT", 42), 42);
}

TEST(ConfigTest, EnvInt64ParsesValue) {
  setenv("DCS_TEST_INT", "123", 1);
  EXPECT_EQ(EnvInt64("DCS_TEST_INT", 42), 123);
  setenv("DCS_TEST_INT", "-7", 1);
  EXPECT_EQ(EnvInt64("DCS_TEST_INT", 42), -7);
  unsetenv("DCS_TEST_INT");
}

TEST(ConfigTest, EnvInt64RejectsGarbage) {
  setenv("DCS_TEST_INT", "12abc", 1);
  EXPECT_EQ(EnvInt64("DCS_TEST_INT", 42), 42);
  setenv("DCS_TEST_INT", "", 1);
  EXPECT_EQ(EnvInt64("DCS_TEST_INT", 42), 42);
  unsetenv("DCS_TEST_INT");
}

TEST(ConfigTest, EnvInt64FallsBackOnOverflow) {
  setenv("DCS_TEST_INT", "99999999999999999999", 1);
  EXPECT_EQ(EnvInt64("DCS_TEST_INT", 42), 42);
  unsetenv("DCS_TEST_INT");
}

TEST(ConfigTest, EnvDoubleParsesAndFallsBack) {
  setenv("DCS_TEST_DBL", "0.25", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("DCS_TEST_DBL", 1.0), 0.25);
  setenv("DCS_TEST_DBL", "zzz", 1);
  EXPECT_DOUBLE_EQ(EnvDouble("DCS_TEST_DBL", 1.0), 1.0);
  unsetenv("DCS_TEST_DBL");
}

TEST(ConfigTest, BenchScaleFromEnv) {
  unsetenv("DCS_SCALE");
  EXPECT_EQ(BenchScaleFromEnv(), BenchScale::kSmall);
  setenv("DCS_SCALE", "paper", 1);
  EXPECT_EQ(BenchScaleFromEnv(), BenchScale::kPaper);
  setenv("DCS_SCALE", "other", 1);
  EXPECT_EQ(BenchScaleFromEnv(), BenchScale::kSmall);
  unsetenv("DCS_SCALE");
}

TEST(ConfigTest, ScaleNames) {
  EXPECT_EQ(BenchScaleName(BenchScale::kSmall), "small");
  EXPECT_EQ(BenchScaleName(BenchScale::kPaper), "paper");
}

TEST(ConfigTest, ParseNumbersWholeStringOnly) {
  std::int64_t i = 0;
  EXPECT_TRUE(ParseNumber("-17", &i));
  EXPECT_EQ(i, -17);
  for (const char* bad : {"8x", "", "+", "1e3", " 1", "99999999999999999999"}) {
    EXPECT_FALSE(ParseNumber(bad, &i)) << bad;
  }
  double d = 0.0;
  EXPECT_TRUE(ParseNumber("0.25", &d));
  EXPECT_DOUBLE_EQ(d, 0.25);
  for (const char* bad : {"x", "2x", "", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParseNumber(bad, &d)) << bad;
  }
}

// Flags over a literal argv (no program name).
Flags MakeFlags(std::initializer_list<const char*> args) {
  const std::vector<const char*> argv(args);
  return Flags(static_cast<int>(argv.size()), argv.data(), 0);
}

// Finish()'s message, or "" when it passes.
std::string FinishError(const Flags& flags) {
  const Status status = flags.Finish();
  return status.ok() ? "" : status.message();
}

TEST(FlagsTest, ReadsValuesSwitchesAndFallbacks) {
  Flags flags = MakeFlags({"--threads", "4", "--exit-on-idle", "--uds",
                           "dcs.sock", "--epochs", "-3"});
  std::size_t threads = 0;
  flags.Int("threads", 1, 1, kMaxThreads, &threads);
  EXPECT_EQ(threads, 4u);
  std::int64_t epochs = 0;
  flags.Int("epochs", 0, -10, 10, &epochs);
  EXPECT_EQ(epochs, -3);
  EXPECT_TRUE(flags.Switch("exit-on-idle"));
  EXPECT_FALSE(flags.Switch("self-test"));
  EXPECT_TRUE(flags.Has("uds"));
  EXPECT_EQ(flags.String("uds", ""), "dcs.sock");
  EXPECT_EQ(flags.String("host", "127.0.0.1"), "127.0.0.1");
  int absent = 0;
  flags.Int("ring-capacity", 8, 1, 16, &absent);
  EXPECT_EQ(absent, 8);
  EXPECT_TRUE(flags.Finish().ok());
}

TEST(FlagsTest, RejectsMalformedIntegers) {
  for (const char* bad : {"8x", "", "+", "1e3", "99999999999999999999"}) {
    Flags flags = MakeFlags({"--ring-epochs", bad});
    std::uint64_t epochs = 7;
    flags.Int("ring-epochs", 0, 0, kNoMax, &epochs);
    EXPECT_EQ(epochs, 0u) << bad;  // The fallback, never a partial parse.
    const std::string error = FinishError(flags);
    EXPECT_NE(error.find("--ring-epochs"), std::string::npos) << bad;
    EXPECT_NE(error.find("must be an integer"), std::string::npos) << bad;
  }
}

TEST(FlagsTest, RejectsOutOfRangeValues) {
  struct Case {
    const char* value;
    bool ok;
  };
  for (const Case c : {Case{"0", false}, Case{"1", true}, Case{"4096", true},
                       Case{"4097", false}, Case{"-1", false}}) {
    Flags flags = MakeFlags({"--ring-capacity", c.value});
    std::size_t capacity = 0;
    flags.Int("ring-capacity", 8, 1, 4096, &capacity);
    const std::string error = FinishError(flags);
    EXPECT_EQ(error.empty(), c.ok) << c.value << ": " << error;
    if (!c.ok) {
      EXPECT_NE(error.find("--ring-capacity"), std::string::npos);
      EXPECT_EQ(capacity, 8u);
    }
  }
}

TEST(FlagsTest, NegativeRejectedWhereMinIsZero) {
  Flags flags = MakeFlags({"--max-rejects", "-5"});
  std::uint64_t rejects = 0;
  flags.Int("max-rejects", 64, 0, kNoMax,
            &rejects);
  EXPECT_EQ(rejects, 64u);
  EXPECT_NE(FinishError(flags).find("--max-rejects must be >= 0"),
            std::string::npos);
}

TEST(FlagsTest, RangeIsClampedToTheOutputType) {
  Flags flags = MakeFlags({"--seed", "9223372036854775807"});
  std::uint64_t seed = 0;
  flags.Int("seed", 1, 0, kNoMax, &seed);
  EXPECT_EQ(seed, 9223372036854775807u);
  EXPECT_TRUE(flags.Finish().ok());

  // An unsigned 16-bit port never wraps: 70000 is out of range, not 4464.
  Flags port_flags = MakeFlags({"--tcp-port", "70000"});
  std::uint16_t port = 0;
  port_flags.Int("tcp-port", 0, 0, kNoMax, &port);
  EXPECT_EQ(port, 0u);
  EXPECT_EQ(FinishError(port_flags),
            "--tcp-port must be >= 0 and <= 65535, got 70000");
}

TEST(FlagsTest, ThreadCountsAreBounded) {
  Flags ok = MakeFlags({"--threads", "256"});
  std::size_t threads = 0;
  ok.Int("threads", 1, 1, kMaxThreads, &threads);
  EXPECT_EQ(threads, 256u);
  EXPECT_TRUE(ok.Finish().ok());

  Flags huge = MakeFlags({"--threads", "100000"});
  huge.Int("threads", 1, 1, kMaxThreads, &threads);
  EXPECT_EQ(threads, 1u);
  EXPECT_NE(FinishError(huge).find("--threads"), std::string::npos);
}

TEST(FlagsTest, UnknownAndUnreadFlagsAreNamed) {
  Flags mistyped = MakeFlags({"--in-dir", "/tmp/dcs", "--n-prim", "64"});
  std::size_t n_prime = 0;
  EXPECT_EQ(mistyped.String("in-dir", ""), "/tmp/dcs");
  mistyped.Int("n-prime", 128, 2, 1024, &n_prime);
  EXPECT_EQ(n_prime, 128u);
  EXPECT_EQ(FinishError(mistyped), "unknown flag --n-prim");

  // The first unread flag in argv order is the one named.
  Flags unread = MakeFlags({"--a", "1", "--b", "--c", "x"});
  EXPECT_EQ(unread.String("c", ""), "x");
  EXPECT_EQ(FinishError(unread), "unknown flag --a");
  // Has() does not count as a read.
  Flags peeked = MakeFlags({"--tcp-port", "0"});
  EXPECT_TRUE(peeked.Has("tcp-port"));
  EXPECT_EQ(FinishError(peeked), "unknown flag --tcp-port");
}

TEST(FlagsTest, SwitchGivenAValueIsRejected) {
  Flags flags = MakeFlags({"--exit-on-idle", "5"});
  EXPECT_TRUE(flags.Switch("exit-on-idle"));
  EXPECT_NE(FinishError(flags).find("--exit-on-idle takes no value"),
            std::string::npos);
}

TEST(FlagsTest, ValueFlagWithoutValueIsRejected) {
  Flags at_end = MakeFlags({"--smoke", "--out"});
  EXPECT_TRUE(at_end.Switch("smoke"));
  EXPECT_EQ(at_end.String("out", "BENCH.json"), "BENCH.json");
  EXPECT_EQ(FinishError(at_end), "--out needs a value");

  Flags before_flag = MakeFlags({"--threads", "--smoke"});
  std::size_t threads = 0;
  before_flag.Int("threads", 1, 1, kMaxThreads, &threads);
  EXPECT_TRUE(before_flag.Switch("smoke"));
  EXPECT_EQ(threads, 1u);
  EXPECT_EQ(FinishError(before_flag), "--threads needs a value");
}

TEST(FlagsTest, RepeatedFlagAndPositionalAreRejected) {
  Flags repeated = MakeFlags({"--threads", "2", "--threads", "3"});
  std::size_t threads = 0;
  repeated.Int("threads", 1, 1, kMaxThreads, &threads);
  EXPECT_EQ(FinishError(repeated), "--threads given twice");

  Flags positional = MakeFlags({"--smoke", "extra", "file"});
  positional.Switch("smoke");
  EXPECT_NE(FinishError(positional).find("unexpected argument"),
            std::string::npos);
}

TEST(FlagsTest, FirstErrorWins) {
  Flags flags = MakeFlags({"--a", "x", "--b", "y", "--c"});
  int a = 0;
  int b = 0;
  flags.Int("a", 0, 0, 9, &a);
  flags.Int("b", 0, 0, 9, &b);
  EXPECT_NE(FinishError(flags).find("--a must be an integer"),
            std::string::npos);
}

}  // namespace
}  // namespace dcs
