#include "obs/trace.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/thread_id.hpp"
#include "obs/json_escape.hpp"

namespace wm::obs {

namespace detail {
std::atomic<int> g_trace_state{-1};
}  // namespace detail

namespace {

struct TraceEvent {
  const char* name;
  std::int64_t start_ns;
  std::int64_t dur_ns;   // ignored for counter samples
  double value = 0.0;    // counter samples only
  bool is_counter = false;
  std::uint64_t trace_id = 0;  // distributed-request id; 0 = plain span
  char flow_phase = 0;         // 's'/'t'/'f' = flow event (trace_id is the
                               // flow id); 0 = span or counter
};

struct ThreadBuffer {
  std::mutex mutex;
  int tid = 0;
  std::size_t capacity = 0;
  std::string label;               // exported thread_name when non-empty
  std::vector<TraceEvent> events;  // grows to capacity, then rings
  std::size_t next = 0;            // oldest slot once the ring is full
  std::uint64_t dropped = 0;       // events overwritten by wrap-around
};

struct TracerState {
  std::mutex mutex;
  // shared_ptr so buffers of exited threads survive until export.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::int64_t base_ns = 0;  // export timestamps are relative to this
  std::atomic<std::size_t> capacity{0};
  int pid = 1;
  std::string process_name = "wm";
};

std::size_t capacity_from_env() {
  // Hardened parse: garbage or an overflowing value warns and keeps the
  // default instead of being silently truncated by atoi-style parsing.
  if (const auto v = env_int("WM_TRACE_BUFFER", 1, std::int64_t{1} << 32)) {
    return static_cast<std::size_t>(*v);
  }
  return 65536;
}

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TracerState& tracer() {
  // Leaked on purpose: thread_local buffer owners may be destroyed after
  // other statics, and export helpers must stay callable late.
  static TracerState* state = [] {
    auto* s = new TracerState();
    s->base_ns = steady_now_ns();
    s->capacity.store(capacity_from_env(), std::memory_order_relaxed);
    s->pid = static_cast<int>(::getpid());
    return s;
  }();
  return *state;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    TracerState& t = tracer();
    auto b = std::make_shared<ThreadBuffer>();
    b->tid = this_thread_index();
    b->capacity = t.capacity.load(std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(t.mutex);
    t.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

/// Copies a buffer's events oldest-first.
void append_in_order(const ThreadBuffer& b, std::vector<TraceEvent>* out) {
  if (b.events.size() < b.capacity || b.next == 0) {
    out->insert(out->end(), b.events.begin(), b.events.end());
    return;
  }
  out->insert(out->end(), b.events.begin() + static_cast<std::ptrdiff_t>(b.next),
              b.events.end());
  out->insert(out->end(), b.events.begin(),
              b.events.begin() + static_cast<std::ptrdiff_t>(b.next));
}

}  // namespace

namespace detail {

bool trace_init_from_env() {
  const bool on = env_bool("WM_TRACE").value_or(false);
  int expected = -1;
  g_trace_state.compare_exchange_strong(expected, on ? 1 : 0);
  return g_trace_state.load(std::memory_order_relaxed) != 0;
}

std::int64_t trace_now_ns() { return steady_now_ns(); }

namespace {

void push_event(const TraceEvent& e) {
  ThreadBuffer& b = local_buffer();
  const std::lock_guard<std::mutex> lock(b.mutex);
  if (b.events.size() < b.capacity) {
    b.events.push_back(e);
  } else if (b.capacity > 0) {
    b.events[b.next] = e;  // overwrite the oldest event
    b.next = (b.next + 1) % b.capacity;
    ++b.dropped;
  }
}

}  // namespace

void trace_record(const char* name, std::int64_t start_ns,
                  std::int64_t end_ns) {
  push_event(TraceEvent{name, start_ns, end_ns - start_ns, 0.0, false, 0, 0});
}

void trace_record_counter(const char* name, std::int64_t ts_ns, double value) {
  push_event(TraceEvent{name, ts_ns, 0, value, true, 0, 0});
}

void trace_record_span(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t trace_id) {
  push_event(
      TraceEvent{name, start_ns, end_ns - start_ns, 0.0, false, trace_id, 0});
}

void trace_record_flow(char phase, std::uint64_t flow_id,
                       std::int64_t ts_ns) {
  push_event(TraceEvent{"req", ts_ns, 0, 0.0, false, flow_id, phase});
}

}  // namespace detail

void set_trace_process_name(const std::string& name) {
  TracerState& t = tracer();
  const std::lock_guard<std::mutex> lock(t.mutex);
  t.process_name = name;
}

void set_trace_thread_label(const std::string& label) {
  ThreadBuffer& b = local_buffer();
  const std::lock_guard<std::mutex> lock(b.mutex);
  b.label = label;
}

void set_trace_enabled(bool on) {
  detail::g_trace_state.store(on ? 1 : 0, std::memory_order_relaxed);
}

void set_trace_buffer_capacity(std::size_t events) {
  WM_CHECK(events > 0, "trace buffer capacity must be positive");
  tracer().capacity.store(events, std::memory_order_relaxed);
}

std::size_t trace_event_count() {
  TracerState& t = tracer();
  const std::lock_guard<std::mutex> lock(t.mutex);
  std::size_t n = 0;
  for (const auto& b : t.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(b->mutex);
    n += b->events.size();
  }
  return n;
}

std::uint64_t trace_dropped_count() {
  TracerState& t = tracer();
  const std::lock_guard<std::mutex> lock(t.mutex);
  std::uint64_t n = 0;
  for (const auto& b : t.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(b->mutex);
    n += b->dropped;
  }
  return n;
}

void trace_clear() {
  TracerState& t = tracer();
  const std::lock_guard<std::mutex> lock(t.mutex);
  for (const auto& b : t.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(b->mutex);
    b->events.clear();
    b->next = 0;
    b->dropped = 0;
  }
}

std::string trace_to_json() {
  TracerState& t = tracer();
  std::ostringstream os;

  const std::lock_guard<std::mutex> lock(t.mutex);
  const int pid = t.pid;
  // baseNs lets trace-merge realign several processes' relative timestamps
  // onto one CLOCK_MONOTONIC timeline (string: full ns precision survives
  // JSON round-trips that would truncate a 2^53+ double).
  os << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"baseNs\":\""
     << t.base_ns << "\"},\"traceEvents\":[";
  {
    std::string pname;
    append_json_escaped(&pname, t.process_name.c_str());
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"name\":\"" << pname << "\"}}";
  }

  for (const auto& b : t.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(b->mutex);
    std::string tname;
    if (b->label.empty()) {
      tname = "thread-" + std::to_string(b->tid);
    } else {
      append_json_escaped(&tname, b->label.c_str());
    }
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"tid\":" << b->tid << ",\"args\":{\"name\":\"" << tname
       << "\"}}";
    std::vector<TraceEvent> ordered;
    ordered.reserve(b->events.size());
    append_in_order(*b, &ordered);
    for (const TraceEvent& e : ordered) {
      const double ts_us =
          static_cast<double>(e.start_ns - t.base_ns) / 1000.0;
      char nums[96];
      std::string name;
      append_json_escaped(&name, e.name);
      if (e.is_counter) {
        // Counter sample: Perfetto renders consecutive "C" events with the
        // same name as a stepped value track.
        std::snprintf(nums, sizeof(nums), "\"ts\":%.3f", ts_us);
        os << ",{\"name\":\"" << name
           << "\",\"cat\":\"wm\",\"ph\":\"C\",\"pid\":" << pid
           << ",\"tid\":" << b->tid << "," << nums << ",\"args\":{\"value\":";
        char val[32];
        std::snprintf(val, sizeof(val), "%.6g",
                      std::isfinite(e.value) ? e.value : 0.0);
        os << val << "}}";
      } else if (e.flow_phase != 0) {
        // Flow event: arrows between the slices enclosing each phase.
        char id[24];
        std::snprintf(id, sizeof(id), "0x%llx",
                      static_cast<unsigned long long>(e.trace_id));
        std::snprintf(nums, sizeof(nums), "\"ts\":%.3f", ts_us);
        os << ",{\"name\":\"" << name
           << "\",\"cat\":\"wm.flow\",\"ph\":\"" << e.flow_phase
           << "\",\"id\":\"" << id << "\",\"pid\":" << pid
           << ",\"tid\":" << b->tid << "," << nums;
        if (e.flow_phase == 'f') os << ",\"bp\":\"e\"";
        os << "}";
      } else {
        const double dur_us = static_cast<double>(e.dur_ns) / 1000.0;
        std::snprintf(nums, sizeof(nums), "\"ts\":%.3f,\"dur\":%.3f", ts_us,
                      dur_us);
        os << ",{\"name\":\"" << name
           << "\",\"cat\":\"wm\",\"ph\":\"X\",\"pid\":" << pid
           << ",\"tid\":" << b->tid << "," << nums;
        if (e.trace_id != 0) {
          char id[24];
          std::snprintf(id, sizeof(id), "0x%llx",
                        static_cast<unsigned long long>(e.trace_id));
          os << ",\"args\":{\"trace_id\":\"" << id << "\"}";
        }
        os << "}";
      }
    }
  }
  os << "]}";
  return os.str();
}

void trace_write_json(const std::string& path) {
  const std::string json = trace_to_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw IoError("cannot open trace file " + path);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int rc = std::fclose(f);
  if (written != json.size() || rc != 0) {
    throw IoError("short write to trace file " + path);
  }
}

}  // namespace wm::obs
