// wm::obs tracing: the off-by-default gate, span recording, ring-buffer
// wrap-around, Chrome-trace JSON export well-formedness, and the
// distributed-tracing primitives (retro spans, flow events, trace ids).
#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json_check.hpp"
#include "obs/trace_context.hpp"

namespace wm::obs {
namespace {

/// Forces a known tracer state for each test; these tests share process-wide
/// tracer state with everything else in the binary.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_trace_enabled(false);
    trace_clear();
  }
  void TearDown() override {
    set_trace_enabled(false);
    trace_clear();
  }
};

TEST_F(TraceTest, WmTraceParsesLikeEveryBooleanKnob) {
  const struct {
    const char* value;
    bool on;
  } cases[] = {{"no", false},  {"OFF", false},  {"yes", true},
               {"1", true},    {"maybe", false}, {"On", true}};
  for (const auto& c : cases) {
    ::setenv("WM_TRACE", c.value, 1);
    detail::g_trace_state.store(-1);  // re-read WM_TRACE on next use
    EXPECT_EQ(trace_enabled(), c.on) << "WM_TRACE=" << c.value;
  }
  ::unsetenv("WM_TRACE");
  detail::g_trace_state.store(-1);
  EXPECT_FALSE(trace_enabled()) << "unset WM_TRACE";
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(trace_enabled());
  const std::size_t before = trace_event_count();
  for (int i = 0; i < 100; ++i) {
    WM_TRACE_SCOPE("should_not_appear");
  }
  EXPECT_EQ(trace_event_count(), before);
}

TEST_F(TraceTest, EnabledSpansAreRecordedAndCleared) {
  set_trace_enabled(true);
  {
    WM_TRACE_SCOPE("outer");
    WM_TRACE_SCOPE("inner");
  }
  EXPECT_EQ(trace_event_count(), 2u);
  trace_clear();
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(TraceTest, ExportIsValidChromeTraceJson) {
  set_trace_enabled(true);
  {
    WM_TRACE_SCOPE("span_a");
    WM_TRACE_SCOPE("span_b");
  }
  std::thread([] {
    WM_TRACE_SCOPE("span_on_other_thread");
  }).join();

  const testjson::Value doc = testjson::parse(trace_to_json());
  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  const testjson::Array& events = doc.at("traceEvents").arr();

  int x_events = 0;
  int metadata = 0;
  bool saw_a = false, saw_b = false, saw_other = false;
  for (const testjson::Value& e : events) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.at("ph").str();
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++x_events;
    // Every complete event carries the full Chrome-trace field set.
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    EXPECT_TRUE(e.at("ts").is_number());
    ASSERT_TRUE(e.at("dur").is_number());
    EXPECT_GE(e.at("dur").num(), 0.0);
    const std::string& name = e.at("name").str();
    saw_a = saw_a || name == "span_a";
    saw_b = saw_b || name == "span_b";
    saw_other = saw_other || name == "span_on_other_thread";
  }
  EXPECT_EQ(x_events, 3);
  EXPECT_GE(metadata, 2);  // process_name + at least one thread_name
  EXPECT_TRUE(saw_a);
  EXPECT_TRUE(saw_b);
  EXPECT_TRUE(saw_other);
}

TEST_F(TraceTest, CounterSamplesExportAsPerfettoCounterTrack) {
  set_trace_enabled(true);
  trace_counter("queue.depth", 3.0);
  trace_counter("queue.depth", 7.5);
  trace_counter("coverage", 0.625);
  EXPECT_EQ(trace_event_count(), 3u);

  const testjson::Value doc = testjson::parse(trace_to_json());
  int c_events = 0;
  std::vector<double> depth_values;
  for (const testjson::Value& e : doc.at("traceEvents").arr()) {
    if (e.at("ph").str() != "C") continue;
    ++c_events;
    // A counter event carries ts + args.value and no duration.
    EXPECT_TRUE(e.at("ts").is_number());
    ASSERT_TRUE(e.at("args").at("value").is_number());
    if (e.at("name").str() == "queue.depth") {
      depth_values.push_back(e.at("args").at("value").num());
    } else {
      EXPECT_EQ(e.at("name").str(), "coverage");
      EXPECT_DOUBLE_EQ(e.at("args").at("value").num(), 0.625);
    }
  }
  EXPECT_EQ(c_events, 3);
  ASSERT_EQ(depth_values.size(), 2u);  // same-name samples stay ordered
  EXPECT_DOUBLE_EQ(depth_values[0], 3.0);
  EXPECT_DOUBLE_EQ(depth_values[1], 7.5);
}

TEST_F(TraceTest, DisabledCounterSamplesRecordNothing) {
  ASSERT_FALSE(trace_enabled());
  trace_counter("ignored", 1.0);
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST_F(TraceTest, NonFiniteCounterValuesExportAsZero) {
  set_trace_enabled(true);
  trace_counter("bad", std::numeric_limits<double>::quiet_NaN());
  trace_counter("bad", std::numeric_limits<double>::infinity());
  // The export must stay valid JSON ("nan"/"inf" are not JSON numbers).
  const testjson::Value doc = testjson::parse(trace_to_json());
  for (const testjson::Value& e : doc.at("traceEvents").arr()) {
    if (e.at("ph").str() != "C") continue;
    EXPECT_DOUBLE_EQ(e.at("args").at("value").num(), 0.0);
  }
}

TEST_F(TraceTest, RingBufferWrapsAndCountsDrops) {
  set_trace_enabled(true);
  const std::uint64_t dropped_before = trace_dropped_count();
  // Capacity applies to buffers created afterwards, so spin up a new thread.
  set_trace_buffer_capacity(8);
  std::thread([] {
    for (int i = 0; i < 20; ++i) {
      WM_TRACE_SCOPE("wrap");
    }
  }).join();
  set_trace_buffer_capacity(65536);
  EXPECT_EQ(trace_dropped_count() - dropped_before, 12u);
  // The ring still exports valid JSON after wrapping.
  const testjson::Value doc = testjson::parse(trace_to_json());
  EXPECT_TRUE(doc.at("traceEvents").is_array());
}

TEST_F(TraceTest, WriteJsonProducesLoadableFile) {
  set_trace_enabled(true);
  {
    WM_TRACE_SCOPE("to_file");
  }
  const std::string path = ::testing::TempDir() + "wm_trace_test.json";
  trace_write_json(path);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  const testjson::Value doc = testjson::parse(content);
  EXPECT_TRUE(doc.at("traceEvents").is_array());
}

TEST_F(TraceTest, ConcurrentRingWrapsStillExportValidJson) {
  set_trace_enabled(true);
  // Tiny rings force every thread to wrap dozens of times while the spans,
  // flows and counters interleave; the export must stay parseable and the
  // drop accounting exact regardless of where each ring's write head is.
  set_trace_buffer_capacity(16);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      set_trace_thread_label("wrapper" + std::to_string(t));
      for (int i = 0; i < 200; ++i) {
        const std::int64_t now = trace_clock_ns();
        trace_span_at("wrap_span", now - 1000, now,
                      static_cast<std::uint64_t>(t * 1000 + i + 1));
        trace_flow('t', static_cast<std::uint64_t>(t * 1000 + i + 1), now);
        trace_counter("wrap_counter", static_cast<double>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  set_trace_buffer_capacity(65536);

  const testjson::Value doc = testjson::parse(trace_to_json());
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  std::size_t payload = 0;
  for (const testjson::Value& e : doc.at("traceEvents").arr()) {
    ASSERT_TRUE(e.is_object());
    const std::string& ph = e.at("ph").str();
    if (ph == "M") continue;
    ASSERT_TRUE(ph == "X" || ph == "C" || ph == "t") << ph;
    ++payload;
  }
  // 4 rings x 16 slots worth of events survive (the newest ones).
  EXPECT_GT(payload, 0u);
  EXPECT_LE(payload, 4u * 16u);
}

TEST_F(TraceTest, RetroSpansAndFlowsCarryTheTraceId) {
  set_trace_enabled(true);
  const std::int64_t start = trace_clock_ns();
  const std::int64_t end = start + 5'000'000;
  trace_span_at("hop.work", start, end, 0xABCDEF);
  trace_flow('s', 0xABCDEF, start);
  trace_flow('f', 0xABCDEF, end);

  bool saw_span = false, saw_s = false, saw_f = false;
  const testjson::Value doc = testjson::parse(trace_to_json());
  for (const testjson::Value& e : doc.at("traceEvents").arr()) {
    const std::string& ph = e.at("ph").str();
    if (ph == "X" && e.at("name").str() == "hop.work") {
      saw_span = true;
      EXPECT_EQ(e.at("args").at("trace_id").str(), "0xabcdef");
      EXPECT_NEAR(e.at("dur").num(), 5000.0, 1.0);  // us
    } else if (ph == "s") {
      saw_s = true;
      EXPECT_EQ(e.at("id").str(), "0xabcdef");
    } else if (ph == "f") {
      saw_f = true;
      EXPECT_EQ(e.at("id").str(), "0xabcdef");
      // Binding point "enclosing slice" is what makes Perfetto attach the
      // arrow end to the span the event sits inside.
      EXPECT_EQ(e.at("bp").str(), "e");
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_s);
  EXPECT_TRUE(saw_f);
}

TEST_F(TraceTest, ThreadLabelBecomesTheTrackName) {
  set_trace_enabled(true);
  std::thread([] {
    set_trace_thread_label("replica7.worker3");
    const std::int64_t now = trace_clock_ns();
    trace_span_at("labelled", now - 10, now, 1);
  }).join();

  bool saw_label = false;
  const testjson::Value doc = testjson::parse(trace_to_json());
  for (const testjson::Value& e : doc.at("traceEvents").arr()) {
    if (e.at("ph").str() == "M" && e.at("name").str() == "thread_name" &&
        e.at("args").at("name").str() == "replica7.worker3") {
      saw_label = true;
    }
  }
  EXPECT_TRUE(saw_label);
}

TEST_F(TraceTest, TraceIdsAreUniqueAcrossThreads) {
  // 8 threads x 500 draws: ids must never be zero and never collide — each
  // id names one distributed request in merged multi-process traces.
  std::vector<std::vector<std::uint64_t>> per_thread(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < per_thread.size(); ++t) {
    threads.emplace_back([&per_thread, t] {
      for (int i = 0; i < 500; ++i) {
        const TraceContext ctx = start_trace();
        EXPECT_TRUE(ctx.sampled);
        EXPECT_TRUE(ctx.active());
        per_thread[t].push_back(ctx.trace_id);
      }
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> all;
  for (const auto& ids : per_thread) {
    for (const std::uint64_t id : ids) {
      EXPECT_NE(id, 0u);
      EXPECT_TRUE(all.insert(id).second) << "duplicate trace id " << id;
    }
  }
  EXPECT_EQ(all.size(), 8u * 500u);
}

TEST_F(TraceTest, UnsampledContextsAreInactive) {
  const TraceContext off = start_trace(/*sampled=*/false);
  EXPECT_NE(off.trace_id, 0u);
  EXPECT_FALSE(off.active());
  EXPECT_FALSE(TraceContext{}.active());
}

}  // namespace
}  // namespace wm::obs
