// wm::obs metrics: instrument semantics, registry contracts, exporter
// formats, and exact sums under concurrent updates.
#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/json_check.hpp"

namespace wm::obs {
namespace {

TEST(CounterTest, IncAndValue) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAddIncDec) {
  Gauge g;
  g.set(10.5);
  EXPECT_DOUBLE_EQ(g.value(), 10.5);
  g.add(-0.5);
  g.inc();
  g.dec();
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
}

TEST(HistogramTest, BucketAssignmentAndSnapshot) {
  Histogram h({10, 100, 1000}, "us");
  h.record(-5);   // clamps to 0 -> first bucket
  h.record(10);   // boundary is inclusive -> first bucket
  h.record(11);   // second bucket
  h.record(999);  // third bucket
  h.record(5000); // overflow bucket
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.buckets.size(), 4u);
  EXPECT_EQ(s.buckets[0], 2u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 1u);
  EXPECT_EQ(s.buckets[3], 1u);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 0 + 10 + 11 + 999 + 5000);
  EXPECT_EQ(s.max, 5000);
  EXPECT_EQ(s.unit, "us");
}

TEST(HistogramTest, QuantileAndMean) {
  Histogram h(Histogram::latency_bounds_us(), "us");
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.quantile(0.5), 0);  // empty
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  for (int i = 0; i < 90; ++i) h.record(80);
  for (int i = 0; i < 10; ++i) h.record(40'000);
  s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.mean(), (90.0 * 80 + 10.0 * 40'000) / 100.0);
  // Geometric interpolation within the log buckets: rank 50 sits 5/9 into
  // the (50, 100] bucket -> 50*2^(5/9) ~= 73; rank 95 sits halfway into
  // (20000, 50000] -> 20000*sqrt(2.5) ~= 31623.
  EXPECT_EQ(s.quantile(0.50), 73);
  EXPECT_EQ(s.quantile(0.95), 31'623);
  EXPECT_EQ(s.quantile(1.0), 40'000);  // capped at the observed max
}

TEST(HistogramTest, QuantileGeometricInterpolationAccuracy) {
  // A log-uniform distribution is the scheme's best case: geometric
  // interpolation should land near the exact quantiles, while snapping to
  // bucket bounds (the old behaviour) errs by up to the bucket ratio (2.5x
  // on the 1-2-5 grid). Spread samples log-uniformly over [100us, 1s].
  Histogram h(Histogram::latency_bounds_us(), "us");
  constexpr int kN = 10'000;
  std::vector<std::int64_t> values;
  values.reserve(kN);
  for (int i = 0; i < kN; ++i) {
    const double u = (i + 0.5) / kN;
    values.push_back(
        static_cast<std::int64_t>(std::llround(100.0 * std::pow(1e4, u))));
  }
  for (const std::int64_t v : values) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  std::sort(values.begin(), values.end());
  for (const double q : {0.10, 0.25, 0.50, 0.90, 0.95, 0.99}) {
    const std::int64_t exact =
        values[static_cast<std::size_t>(std::ceil(q * kN)) - 1];
    const std::int64_t est = s.quantile(q);
    // Within 6% of the exact quantile everywhere on the grid.
    EXPECT_NEAR(static_cast<double>(est), static_cast<double>(exact),
                0.06 * static_cast<double>(exact))
        << "q=" << q;
  }
}

/// The engine's EngineStats::latency is a snapshot of a latency_bounds_us
/// histogram; its quantiles and mean come straight from HistogramSnapshot.
TEST(LatencyHistogramTest, QuantilesAndMean) {
  Histogram hist(Histogram::latency_bounds_us(), "us");
  HistogramSnapshot h = hist.snapshot();
  EXPECT_EQ(h.quantile(0.5), 0);
  EXPECT_EQ(h.count, 0u);
  for (int i = 0; i < 90; ++i) hist.record(80);     // -> bucket <= 100us
  for (int i = 0; i < 10; ++i) hist.record(40'000); // -> bucket <= 50ms
  h = hist.snapshot();
  EXPECT_EQ(h.count, 100u);
  EXPECT_DOUBLE_EQ(h.mean(), (90.0 * 80 + 10.0 * 40'000) / 100.0);
  // Geometric interpolation inside the log buckets (see
  // HistogramSnapshot::quantile): 50*2^(5/9) ~= 73, 20000*sqrt(2.5) ~= 31623.
  EXPECT_EQ(h.quantile(0.50), 73);
  EXPECT_EQ(h.quantile(0.95), 31'623);
  EXPECT_EQ(h.quantile(1.0), 40'000);  // capped at the observed max
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), InvalidArgument);
  EXPECT_THROW(Histogram({10, 5}), InvalidArgument);   // not ascending
  EXPECT_THROW(Histogram({10, 10}), InvalidArgument);  // duplicate
}

TEST(RegistryTest, CreateOnFirstUseReturnsStableRefs) {
  Registry r;
  Counter& a = r.counter("wm_test_total", "help");
  Counter& b = r.counter("wm_test_total");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = r.gauge("wm_test_gauge");
  Gauge& g2 = r.gauge("wm_test_gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = r.histogram("wm_test_hist", {1, 2, 3});
  Histogram& h2 = r.histogram("wm_test_hist", {1, 2, 3});
  EXPECT_EQ(&h1, &h2);
}

TEST(RegistryTest, NameBoundToOneKind) {
  Registry r;
  r.counter("wm_kind_test");
  EXPECT_THROW(r.gauge("wm_kind_test"), InvalidArgument);
  EXPECT_THROW(r.histogram("wm_kind_test", {1}), InvalidArgument);
  r.histogram("wm_hist_test", {1, 2});
  EXPECT_THROW(r.histogram("wm_hist_test", {1, 3}), InvalidArgument);
  EXPECT_THROW(r.counter("wm_hist_test"), InvalidArgument);
}

TEST(RegistryTest, RejectsInvalidNames) {
  Registry r;
  EXPECT_THROW(r.counter(""), InvalidArgument);
  EXPECT_THROW(r.counter("9starts_with_digit"), InvalidArgument);
  EXPECT_THROW(r.counter("has space"), InvalidArgument);
  EXPECT_THROW(r.counter("has-dash"), InvalidArgument);
}

TEST(RegistryTest, ConcurrentUpdatesSumExactly) {
  Registry r;
  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      // Look the instruments up inside the thread — exercises the
      // create-on-first-use race too.
      Counter& c = r.counter("wm_conc_total");
      Histogram& h = r.histogram("wm_conc_hist", {8, 64, 512});
      Gauge& g = r.gauge("wm_conc_gauge");
      for (int i = 0; i < kIters; ++i) {
        c.inc();
        h.record(i % 700);
        g.add(1.0);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(r.counter("wm_conc_total").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  const HistogramSnapshot s = r.histogram("wm_conc_hist", {8, 64, 512}).snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kIters);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, s.count);
  EXPECT_DOUBLE_EQ(r.gauge("wm_conc_gauge").value(),
                   static_cast<double>(kThreads) * kIters);
}

TEST(RegistryTest, PrometheusTextFormat) {
  Registry r;
  r.counter("wm_x_total", "things done").inc(7);
  r.gauge("wm_x_level", "current level").set(2.5);
  Histogram& h = r.histogram("wm_x_lat", {10, 100}, "us", "latencies");
  h.record(5);
  h.record(50);
  h.record(500);
  const std::string text = r.prometheus_text();
  EXPECT_NE(text.find("# HELP wm_x_total things done"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wm_x_total counter"), std::string::npos);
  EXPECT_NE(text.find("wm_x_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wm_x_level gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wm_x_lat histogram"), std::string::npos);
  // Buckets are cumulative.
  EXPECT_NE(text.find("wm_x_lat_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("wm_x_lat_bucket{le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(text.find("wm_x_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("wm_x_lat_sum 555"), std::string::npos);
  EXPECT_NE(text.find("wm_x_lat_count 3"), std::string::npos);
}

TEST(RegistryTest, JsonTextParsesAndMatches) {
  Registry r;
  r.counter("wm_j_total").inc(3);
  r.gauge("wm_j_gauge").set(1.25);
  Histogram& h = r.histogram("wm_j_hist", {2, 4});
  h.record(1);
  h.record(3);
  h.record(9);
  const testjson::Value doc = testjson::parse(r.json_text());
  ASSERT_TRUE(doc.is_object());
  EXPECT_DOUBLE_EQ(doc.at("counters").at("wm_j_total").num(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("wm_j_gauge").num(), 1.25);
  const testjson::Value& hist = doc.at("histograms").at("wm_j_hist");
  EXPECT_DOUBLE_EQ(hist.at("count").num(), 3.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").num(), 13.0);
  ASSERT_TRUE(hist.at("buckets").is_array());
  ASSERT_EQ(hist.at("buckets").arr().size(), 3u);
}

TEST(RegistryTest, GlobalIsSharedAndMacroWorks) {
  Counter& c =
      Registry::global().counter("wm_obs_test_macro_total", "macro test");
  const std::uint64_t before = c.value();
  for (int i = 0; i < 5; ++i) {
    WM_COUNTER_INC("wm_obs_test_macro_total", "macro test");
  }
  EXPECT_EQ(c.value(), before + 5);
}

}  // namespace
}  // namespace wm::obs
