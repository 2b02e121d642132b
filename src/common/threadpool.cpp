#include "common/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <string>

#include "common/env.hpp"

namespace wm {

namespace {

// Set for the lifetime of each worker thread; lets parallel_for detect a
// nested call from inside one of its own workers (or any pool's worker —
// nesting pools inside pools is equally deadlock-prone) and run inline.
thread_local const ThreadPool* current_worker_pool = nullptr;

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> slot;
  return slot;
}

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

}  // namespace

std::size_t ThreadPool::default_worker_count() {
  // Hardened parse: "8x", "-3", or an overflowing value warns and falls
  // back to auto instead of silently configuring a surprise thread count.
  if (const auto threads = env_int("WM_THREADS", 1, 1 << 16)) {
    return static_cast<std::size_t>(*threads - 1);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? hc - 1 : 0;
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == kAutoWorkers) workers = default_worker_count();
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

bool ThreadPool::on_worker_thread() const {
  return current_worker_pool != nullptr;
}

namespace {

// One parallel_chunks call. The caller and the tasks it queued claim chunk
// indices from `next`; whoever claims a chunk runs it, so the caller never
// waits on a chunk that no worker has started. Queued tasks own the region
// through a shared_ptr: one that a worker pops after the caller returned
// finds every chunk claimed and touches nothing else.
struct ChunkRegion {
  using Fn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  ChunkRegion(std::size_t begin, std::size_t end, std::size_t chunks,
              const Fn* fn)
      : begin(begin),
        end(end),
        chunks(chunks),
        chunk_size((end - begin + chunks - 1) / chunks),
        fn(fn),
        remaining(chunks) {}

  /// Runs unclaimed chunks until none is left.
  void run() {
    for (std::size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      const std::size_t lo = begin + c * chunk_size;
      const std::size_t hi = std::min(end, lo + chunk_size);
      try {
        if (lo < hi) (*fn)(lo, hi, c);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!first_error) first_error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mutex);
      if (--remaining == 0) done.notify_one();
    }
  }

  const std::size_t begin;
  const std::size_t end;
  const std::size_t chunks;
  const std::size_t chunk_size;
  // The caller's callable: valid while any chunk is unclaimed or running,
  // because the caller waits for every claimed chunk before returning.
  const Fn* fn;
  std::atomic<std::size_t> next{0};

  std::mutex mutex;
  std::condition_variable done;
  std::size_t remaining;  // chunks not yet finished, guarded by mutex
  std::exception_ptr first_error;  // guarded by mutex
};

}  // namespace

void ThreadPool::parallel_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  // Serial fast path: no workers, a single chunk, or a nested call from a
  // worker thread. That worker already runs one chunk of an outer region,
  // whose other chunks keep the rest of the pool busy, so a nested split
  // runs inline instead of queueing behind them.
  if (workers_.empty() || n == 1 || on_worker_thread()) {
    fn(begin, end, 0);
    return;
  }

  const std::size_t chunks = chunk_count(n);
  const auto region = std::make_shared<ChunkRegion>(begin, end, chunks, &fn);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t c = 1; c < chunks; ++c) {
      tasks_.push([region] { region->run(); });
    }
  }
  cv_.notify_all();
  region->run();  // caller participates, then takes what no worker started

  {
    std::unique_lock<std::mutex> lock(region->mutex);
    region->done.wait(lock, [&] { return region->remaining == 0; });
  }
  if (region->first_error) std::rethrow_exception(region->first_error);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_chunks(begin, end,
                  [&fn](std::size_t lo, std::size_t hi, std::size_t /*slot*/) {
                    for (std::size_t i = lo; i < hi; ++i) fn(i);
                  });
}

ThreadPool& ThreadPool::global() {
  const std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>();
  return *slot;
}

void ThreadPool::configure_global(std::size_t total_threads) {
  const std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  slot.reset();  // join old workers before spawning replacements
  slot = std::make_unique<ThreadPool>(
      total_threads == 0 ? kAutoWorkers : total_threads - 1);
}

}  // namespace wm
