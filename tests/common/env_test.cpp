// The one strict parse behind every WM_* knob and numeric flag: complete
// integers, numbers and booleans in range parse; garbage, trailing
// characters, overflow, and out-of-range values fall back (with a warning)
// for env vars and throw for flags, instead of being silently truncated.
// The overlay precedence (explicit > env > default) is tested as ConfigTest.
#include "common/env.hpp"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/threadpool.hpp"

namespace wm {
namespace {

constexpr const char* kVar = "WM_ENV_TEST_VALUE";

/// Sets kVar for one test and restores the pristine (unset) state after.
class QuietEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    unsetenv(kVar);
    saved_level_ = log_level();
    set_log_level(LogLevel::Off);  // parse failures warn; keep tests quiet
  }
  void TearDown() override {
    unsetenv(kVar);
    set_log_level(saved_level_);
  }

  LogLevel saved_level_ = LogLevel::Info;
};

class EnvIntTest : public QuietEnv {};
class EnvDoubleTest : public QuietEnv {};
class ConfigTest : public QuietEnv {};
class BenchScaleTest : public QuietEnv {};

TEST_F(EnvIntTest, UnsetReturnsNullopt) {
  EXPECT_EQ(env_int(kVar, 0, 100), std::nullopt);
}

TEST_F(EnvIntTest, ParsesCompleteIntegersInRange) {
  setenv(kVar, "42", 1);
  EXPECT_EQ(env_int(kVar, 0, 100), 42);
  setenv(kVar, "-7", 1);
  EXPECT_EQ(env_int(kVar, -10, 10), -7);
  setenv(kVar, "0", 1);
  EXPECT_EQ(env_int(kVar, 0, 0), 0);
}

TEST_F(EnvIntTest, AcceptsRangeEndpoints) {
  setenv(kVar, "1", 1);
  EXPECT_EQ(env_int(kVar, 1, 8), 1);
  setenv(kVar, "8", 1);
  EXPECT_EQ(env_int(kVar, 1, 8), 8);
}

TEST_F(EnvIntTest, RejectsMalformedValues) {
  for (const char* bad : {"", "abc", "8x", "1.5", "0x10", "  ", "++1"}) {
    setenv(kVar, bad, 1);
    EXPECT_EQ(env_int(kVar, 0, 1000), std::nullopt) << "value: '" << bad << "'";
  }
}

TEST_F(EnvIntTest, RejectsOverflow) {
  // Far beyond int64; strtoll saturates with ERANGE, which must not leak
  // through as a silently clamped value.
  setenv(kVar, "99999999999999999999999", 1);
  EXPECT_EQ(env_int(kVar, 0, 1'000'000), std::nullopt);
  setenv(kVar, "-99999999999999999999999", 1);
  EXPECT_EQ(env_int(kVar, -1'000'000, 0), std::nullopt);
}

TEST_F(EnvIntTest, RejectsOutOfRange) {
  setenv(kVar, "101", 1);
  EXPECT_EQ(env_int(kVar, 0, 100), std::nullopt);
  setenv(kVar, "-1", 1);
  EXPECT_EQ(env_int(kVar, 0, 100), std::nullopt);
}

/// WM_THREADS consumes env_int: bad values must mean "auto", not garbage.
TEST_F(EnvIntTest, ThreadPoolFallsBackOnBadWmThreads) {
  const char* saved = std::getenv("WM_THREADS");
  const std::string saved_value = saved ? saved : "";
  const unsigned hc = std::thread::hardware_concurrency();
  const std::size_t auto_workers = hc > 1 ? hc - 1 : 0;
  for (const char* bad : {"0", "-4", "8x", "notanumber",
                          "99999999999999999999999"}) {
    setenv("WM_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::default_worker_count(), auto_workers)
        << "WM_THREADS='" << bad << "'";
  }
  setenv("WM_THREADS", "6", 1);
  EXPECT_EQ(ThreadPool::default_worker_count(), 5u);
  if (saved) {
    setenv("WM_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("WM_THREADS");
  }
}

TEST_F(EnvDoubleTest, UnsetReturnsNullopt) {
  EXPECT_EQ(env_double(kVar, 0.0, 100.0), std::nullopt);
}

TEST_F(EnvDoubleTest, ParsesCompleteNumbersInRange) {
  setenv(kVar, "42", 1);
  EXPECT_EQ(env_double(kVar, 0.0, 100.0), 42.0);
  setenv(kVar, "-7.25", 1);
  EXPECT_EQ(env_double(kVar, -10.0, 10.0), -7.25);
  setenv(kVar, "2.5e-3", 1);
  EXPECT_EQ(env_double(kVar, 0.0, 1.0), 2.5e-3);
  setenv(kVar, ".5", 1);
  EXPECT_EQ(env_double(kVar, 0.0, 1.0), 0.5);
}

TEST_F(EnvDoubleTest, AcceptsRangeEndpoints) {
  setenv(kVar, "0.001", 1);
  EXPECT_EQ(env_double(kVar, 0.001, 1000.0), 0.001);
  setenv(kVar, "1000", 1);
  EXPECT_EQ(env_double(kVar, 0.001, 1000.0), 1000.0);
}

TEST_F(EnvDoubleTest, RejectsMalformedValues) {
  for (const char* bad : {"", "abc", "0.25x", "1,5", "0x10", "  ", " 1",
                          "inf", "nan", "1e", "--1"}) {
    setenv(kVar, bad, 1);
    EXPECT_EQ(env_double(kVar, -1000.0, 1000.0), std::nullopt)
        << "value: '" << bad << "'";
  }
}

TEST_F(EnvDoubleTest, RejectsOverflow) {
  setenv(kVar, "1e999", 1);
  EXPECT_EQ(env_double(kVar, 0.0, 1e6), std::nullopt);
  setenv(kVar, "-1e999", 1);
  EXPECT_EQ(env_double(kVar, -1e6, 0.0), std::nullopt);
}

TEST_F(EnvDoubleTest, RejectsOutOfRange) {
  setenv(kVar, "100.5", 1);
  EXPECT_EQ(env_double(kVar, 0.0, 100.0), std::nullopt);
  setenv(kVar, "-0.1", 1);
  EXPECT_EQ(env_double(kVar, 0.0, 100.0), std::nullopt);
}

TEST_F(ConfigTest, DefaultsDoNotOverrideExplicit) {
  int field = 2;
  overlay(field, 1, kVar, 0, 100);
  EXPECT_EQ(field, 1);
}

TEST_F(ConfigTest, DefaultUsedWhenUnset) {
  int field = 30;
  overlay(field, std::nullopt, kVar, 0, 100);
  EXPECT_EQ(field, 30);
}

TEST_F(ConfigTest, FallbackGetters) {
  EXPECT_EQ(env_int(kVar, 0, 100), std::nullopt);
  EXPECT_EQ(env_double(kVar, 0.0, 1.0), std::nullopt);
  EXPECT_EQ(env_bool(kVar), std::nullopt);
  int i = 7;
  double d = 0.25;
  bool b = true;
  overlay(i, std::nullopt, kVar, 0, 100);
  overlay(d, std::nullopt, kVar, 0.0, 1.0);
  overlay(b, std::nullopt, kVar);
  EXPECT_EQ(i, 7);
  EXPECT_DOUBLE_EQ(d, 0.25);
  EXPECT_TRUE(b);
}

TEST_F(ConfigTest, IntParsing) {
  EXPECT_EQ(flag_int("--n", "-42"), -42);
  EXPECT_THROW(flag_int("--bad", "12abc"), InvalidArgument);
  EXPECT_THROW(flag_int("--port", "70000", 0, 65535), InvalidArgument);
  try {
    flag_int("--port", "8x");
    FAIL() << "8x parsed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--port"), std::string::npos);
  }
}

TEST_F(ConfigTest, DoubleParsing) {
  EXPECT_DOUBLE_EQ(flag_double("--x", "2.5e-3"), 2.5e-3);
  EXPECT_THROW(flag_double("--bad", "zz"), InvalidArgument);
  EXPECT_THROW(flag_double("--bad", "0.5x"), InvalidArgument);
}

TEST_F(ConfigTest, BoolParsing) {
  for (const char* t : {"1", "true", "YES", "On"}) {
    setenv(kVar, t, 1);
    EXPECT_EQ(env_bool(kVar), true) << t;
  }
  for (const char* f : {"0", "false", "NO", "off"}) {
    setenv(kVar, f, 1);
    EXPECT_EQ(env_bool(kVar), false) << f;
  }
  for (const char* bad : {"maybe", "", "2", "truex", " on"}) {
    setenv(kVar, bad, 1);
    EXPECT_EQ(env_bool(kVar), std::nullopt) << "value: '" << bad << "'";
  }
}

TEST_F(ConfigTest, EnvironmentOverridesDefault) {
  setenv(kVar, "99", 1);
  int field = 1;
  overlay(field, std::nullopt, kVar, 0, 100);
  EXPECT_EQ(field, 99);
  setenv(kVar, "0.75", 1);
  double d = 0.5;
  overlay(d, std::nullopt, kVar, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(d, 0.75);
  setenv(kVar, "off", 1);
  bool b = true;
  overlay(b, std::nullopt, kVar);
  EXPECT_FALSE(b);
  // A value that fails the parse keeps the default.
  setenv(kVar, "101", 1);
  overlay(field, std::nullopt, kVar, 0, 100);
  EXPECT_EQ(field, 99);
}

TEST_F(ConfigTest, ExplicitBeatsEnvironment) {
  setenv(kVar, "99", 1);
  int field = 1;
  overlay(field, 5, kVar, 0, 100);
  EXPECT_EQ(field, 5);
  setenv(kVar, "on", 1);
  bool b = true;
  overlay(b, false, kVar);
  EXPECT_FALSE(b);
}

TEST_F(BenchScaleTest, DefaultsToOneAndReadsEnv) {
  const char* saved = std::getenv("WM_BENCH_SCALE");
  const std::string saved_value = saved ? saved : "";
  unsetenv("WM_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(bench_scale(), 1.0);
  setenv("WM_BENCH_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(bench_scale(), 0.25);
  for (const char* bad : {"garbage", "0.25x", "0", "-2", "1e9"}) {
    setenv("WM_BENCH_SCALE", bad, 1);
    EXPECT_DOUBLE_EQ(bench_scale(), 1.0) << "WM_BENCH_SCALE='" << bad << "'";
  }
  if (saved) {
    setenv("WM_BENCH_SCALE", saved_value.c_str(), 1);
  } else {
    unsetenv("WM_BENCH_SCALE");
  }
}

}  // namespace
}  // namespace wm
