#include "common/threadpool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace wm {
namespace {

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);  // explicitly serial: every index runs on the caller
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(pool.max_chunks(), 1u);
  std::vector<int> hits(100, 0);  // plain ints: inline execution, no races
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesWithWorkers) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(6, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, NonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(10, 20, [&](std::size_t i) { total += i; });
  EXPECT_EQ(total.load(), std::size_t(145));  // 10+...+19
}

TEST(ThreadPoolTest, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(0, 10,
                        [&](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 50, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 50);
  }
}

// Regression test: a parallel_for issued from inside a worker used to
// deadlock (all workers blocked waiting on the inner loop's completion).
// Nested calls must run inline on the worker instead.
TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(64 * 16);
  pool.parallel_for(0, 64, [&](std::size_t outer) {
    pool.parallel_for(0, 16, [&](std::size_t inner) {
      hits[outer * 16 + inner]++;
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Regression test: a parallel region nested in the calling thread's own
// chunk used to queue its sub-chunks behind the outer region's chunks, so
// the caller blocked until some worker finished a whole outer chunk. Here
// every worker's outer chunk waits for the caller's nested region to
// finish; the caller must run the sub-chunks no worker has started. The
// bounded wait turns the old behaviour into a failure instead of a hang.
TEST(ThreadPoolTest, CallerRunsUnstartedNestedChunks) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::condition_variable cv;
  bool nested_done = false;  // guarded by mutex
  std::atomic<int> timed_out{0};
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_chunks(
      0, pool.max_chunks(), [&](std::size_t, std::size_t, std::size_t) {
        if (std::this_thread::get_id() != caller) {
          std::unique_lock<std::mutex> lock(mutex);
          if (!cv.wait_for(lock, std::chrono::seconds(5),
                           [&] { return nested_done; })) {
            timed_out++;
          }
          return;
        }
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (nested_done) return;  // the caller claimed a second chunk
        }
        pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
        {
          const std::lock_guard<std::mutex> lock(mutex);
          nested_done = true;
        }
        cv.notify_all();
      });
  EXPECT_EQ(timed_out.load(), 0);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Overwrites the stack below the caller, where the frame of the
// parallel_for that just returned (and its done mutex) lived.
__attribute__((noinline)) void clobber_dead_frame() {
  volatile unsigned char junk[2048];
  for (auto& b : junk) b = 0xA5;
}

// Regression test: the last worker of a region used to decrement the
// completion count before locking the caller's stack-local done mutex, so
// the caller could return while the worker was about to lock that mutex.
// Clobbering the dead frame after every region turns such a late lock into
// an abort in pthread_mutex_lock or a hang instead of a silent overlap
// with the next region's mutex. The window is narrow: tens of thousands of
// tiny back-to-back regions make it likely, and TSan reports it directly.
TEST(ThreadPoolTest, TinyRegionsInTightLoopFinishCleanly) {
  ThreadPool pool(3);
  std::size_t total = 0;
  for (int round = 0; round < 50000; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 4, [&](std::size_t) { count++; });
    clobber_dead_frame();
    total += static_cast<std::size_t>(count.load());
  }
  EXPECT_EQ(total, std::size_t{200000});
}

TEST(ThreadPoolTest, ParallelChunksPartitionsRange) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.max_chunks(), 4u);
  EXPECT_EQ(pool.chunk_count(2), 2u);   // never more chunks than items
  EXPECT_EQ(pool.chunk_count(100), 4u);
  std::vector<std::atomic<int>> hits(100);
  std::vector<std::atomic<int>> slot_used(pool.max_chunks());
  pool.parallel_chunks(0, 100,
                       [&](std::size_t lo, std::size_t hi, std::size_t slot) {
                         ASSERT_LT(slot, pool.max_chunks());
                         slot_used[slot]++;
                         for (std::size_t i = lo; i < hi; ++i) hits[i]++;
                       });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (auto& s : slot_used) EXPECT_LE(s.load(), 1);  // slots never shared
}

TEST(ThreadPoolTest, ParallelChunksSerialIsSingleChunk) {
  ThreadPool pool(0);
  int calls = 0;
  pool.parallel_chunks(3, 40,
                       [&](std::size_t lo, std::size_t hi, std::size_t slot) {
                         ++calls;
                         EXPECT_EQ(lo, 3u);
                         EXPECT_EQ(hi, 40u);
                         EXPECT_EQ(slot, 0u);
                       });
  EXPECT_EQ(calls, 1);
}

// chunk_count() answers for the calling thread: a worker runs nested
// regions inline, so it reports one chunk, while any other thread reports
// the pool's split. Conv backward keys its serial loop off this.
TEST(ThreadPoolTest, ChunkCountIsOneOnAWorker) {
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> counts(pool.max_chunks(), 0);
  std::vector<bool> on_caller(pool.max_chunks(), false);
  pool.parallel_chunks(0, pool.max_chunks(),
                       [&](std::size_t, std::size_t, std::size_t slot) {
                         counts[slot] = pool.chunk_count(100);
                         on_caller[slot] = std::this_thread::get_id() == caller;
                       });
  for (std::size_t slot = 0; slot < counts.size(); ++slot) {
    EXPECT_EQ(counts[slot], on_caller[slot] ? 4u : 1u) << "slot " << slot;
  }
  EXPECT_EQ(pool.chunk_count(0), 0u);
}

TEST(ThreadPoolTest, GlobalPoolSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
}

TEST(ThreadPoolTest, ConfigureGlobalSetsWorkerCount) {
  ThreadPool::configure_global(1);  // WM_THREADS=1 equivalent: serial
  EXPECT_EQ(ThreadPool::global().worker_count(), 0u);
  ThreadPool::configure_global(3);  // caller + 2 workers
  EXPECT_EQ(ThreadPool::global().worker_count(), 2u);
  ThreadPool::configure_global(0);  // back to the WM_THREADS/auto default
  EXPECT_EQ(ThreadPool::global().worker_count(),
            ThreadPool::default_worker_count());
}

TEST(ThreadPoolTest, DefaultWorkerCountHonoursEnv) {
  const char* saved = std::getenv("WM_THREADS");
  const std::string saved_value = saved ? saved : "";
  setenv("WM_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::default_worker_count(), 0u);
  setenv("WM_THREADS", "4", 1);
  EXPECT_EQ(ThreadPool::default_worker_count(), 3u);
  if (saved) {
    setenv("WM_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("WM_THREADS");
  }
}

}  // namespace
}  // namespace wm
