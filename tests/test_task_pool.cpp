// Unit tests for the execution plane (core::TaskPool): fork/join
// correctness of invoke2 and the counter-scheduled for_each, exception
// propagation across task boundaries, nested forks, width retargeting,
// and detached tasks. Everything here must
// hold at any pool width — including width 1, where the pool degrades to
// plain inline calls — so several cases sweep widths explicitly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "amopt/common/parallel.hpp"
#include "amopt/core/task_pool.hpp"

namespace {

using namespace amopt;
using core::TaskPool;

TEST(TaskPool, Invoke2RunsBothLegsAtEveryWidth) {
  for (const int width : {1, 2, 4, 8}) {
    ThreadScope scope(width);
    int a = 0, b = 0;
    TaskPool::instance().invoke2([&] { a = 1; }, [&] { b = 2; });
    EXPECT_EQ(a, 1) << "width " << width;
    EXPECT_EQ(b, 2) << "width " << width;
  }
}

TEST(TaskPool, Invoke2PropagatesExceptionsFromEitherLeg) {
  for (const int width : {1, 4}) {
    ThreadScope scope(width);
    auto& pool = TaskPool::instance();
    bool g_ran = false;
    EXPECT_THROW(
        pool.invoke2([] { throw std::runtime_error("f"); },
                     [&] { g_ran = true; }),
        std::runtime_error);
    // At width 1 this is literally `f(); g();` — f's throw abandons g, the
    // serial semantics. A leg actually OFFERED to the pool must complete
    // before the rethrow (g references the caller's stack frame).
    if (width > 1)
      EXPECT_TRUE(g_ran) << "the offered leg must still run before rethrow";
    else
      EXPECT_FALSE(g_ran);
    EXPECT_THROW(pool.invoke2([] {},
                              [] { throw std::runtime_error("g"); }),
                 std::runtime_error);
  }
}

TEST(TaskPool, NestedInvoke2ComputesRecursiveSum) {
  // sum(1..n) by binary splitting, forking at every interior node: stresses
  // nested joins, the fork-floor confinement, and the steal path.
  struct Rec {
    static std::int64_t sum(std::int64_t lo, std::int64_t hi) {
      if (hi - lo <= 4) {
        std::int64_t s = 0;
        for (std::int64_t i = lo; i < hi; ++i) s += i;
        return s;
      }
      const std::int64_t mid = lo + (hi - lo) / 2;
      std::int64_t left = 0, right = 0;
      TaskPool::instance().invoke2([&] { left = sum(lo, mid); },
                                   [&] { right = sum(mid, hi); });
      return left + right;
    }
  };
  for (const int width : {1, 2, 4}) {
    ThreadScope scope(width);
    const std::int64_t n = 10000;
    EXPECT_EQ(Rec::sum(0, n + 1), n * (n + 1) / 2) << "width " << width;
  }
}

/// Ends the process with a failure if the guarded scope has not finished
/// within `limit`: a hung join cannot be unwound, and without this ctest
/// would only report a timeout after its own (much longer) limit.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: no progress after %llds\n",
                         static_cast<long long>(limit.count()));
            std::_Exit(1);
          }
        }) {}
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_one();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  ///< last: starts after the fields it reads
};

/// A nested fork/join tree with uneven legs: the offered leg of every fork
/// spins three times longer than the inline one, and one level fans out a
/// for_each whose items fork again. The external caller steals nested
/// tasks from the workers while it waits; a fork inside such a task must
/// run inline (see task_pool.hpp), or its offered leg can sit in the
/// injection queue behind workers that are all blocked in joins.
struct StressTree {
  std::atomic<int> leaves{0};
  std::atomic<std::uint64_t> sink{0};

  void spin(std::uint64_t work) {
    std::uint64_t x = work;
    for (std::uint64_t i = 0; i < work; ++i)
      x = x * 6364136223846793005ull + 1442695040888963407ull;
    sink.fetch_add(x, std::memory_order_relaxed);
  }

  void grow(int depth, std::uint64_t work) {
    if (depth == 0) {
      spin(work);
      leaves.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    auto& pool = TaskPool::instance();
    pool.invoke2(
        [&] {
          spin(work);
          grow(depth - 1, work / 2 + 1);
        },
        [&] {
          spin(3 * work);
          if (depth == 3) {
            pool.for_each(4, [&](std::size_t) { grow(1, work); });
          } else {
            grow(depth - 1, 2 * work);
          }
        });
  }

  /// Leaves of grow(depth): the for_each level contributes 4 x grow(1).
  static constexpr int expected_leaves(int depth) {
    if (depth == 0) return 1;
    return expected_leaves(depth - 1) +
           (depth == 3 ? 4 * expected_leaves(1) : expected_leaves(depth - 1));
  }
};

TEST(TaskPool, NestedForksFromAnExternalThreadNeverHang) {
  Watchdog watchdog(std::chrono::seconds(20));
  for (const int width : {2, 3, 4}) {
    ThreadScope scope(width);
    for (int rep = 0; rep < 200; ++rep) {
      StressTree tree;
      tree.grow(6, 64);
      ASSERT_EQ(tree.leaves.load(), StressTree::expected_leaves(6))
          << "width " << width << " rep " << rep;
    }
  }
}

TEST(TaskPool, ForEachCoversEveryIndexExactlyOnce) {
  for (const int width : {1, 3, 8}) {
    ThreadScope scope(width);
    const std::ptrdiff_t n = 1000;
    std::vector<std::atomic<int>> hits(n);
    TaskPool::instance().for_each(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::ptrdiff_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "width " << width << " i=" << i;
  }
}

TEST(TaskPool, ForEachHonorsMaxWidth) {
  ThreadScope scope(8);
  // Each executor's first index waits until a second executor has one too,
  // so the caller cannot finish the map before the helper starts: exactly
  // the caller and one helper run, however the threads are scheduled.
  std::latch both_in(2);
  std::mutex mu;
  std::set<std::thread::id> executors;
  TaskPool::instance().for_each(
      256,
      [&](std::size_t) {
        bool first = false;
        {
          std::lock_guard<std::mutex> lock(mu);
          first = executors.insert(std::this_thread::get_id()).second &&
                  executors.size() <= 2;
        }
        if (first) both_in.arrive_and_wait();
      },
      /*max_width=*/2);
  EXPECT_EQ(executors.size(), 2u);
  EXPECT_EQ(executors.count(std::this_thread::get_id()), 1u);
}

TEST(TaskPool, ForEachPropagatesBodyException) {
  ThreadScope scope(4);
  EXPECT_THROW(TaskPool::instance().for_each(100,
                                             [&](std::size_t i) {
                                               if (i == 57)
                                                 throw std::runtime_error(
                                                     "body");
                                             }),
               std::runtime_error);
}

TEST(TaskPool, SetConcurrencyClampsToValidRange) {
  auto& pool = TaskPool::instance();
  const int saved = pool.concurrency();
  pool.set_concurrency(-3);
  EXPECT_EQ(pool.concurrency(), 1);
  pool.set_concurrency(TaskPool::kMaxThreads + 100);
  EXPECT_EQ(pool.concurrency(), TaskPool::kMaxThreads);
  pool.set_concurrency(saved);
  EXPECT_EQ(pool.concurrency(), saved);
}

TEST(TaskPool, OnWorkerIsFalseOnCallerTrueOnWorkers) {
  constexpr int kWidth = 4;
  ThreadScope scope(kWidth);
  EXPECT_FALSE(TaskPool::on_worker());
  EXPECT_FALSE(in_parallel_region());
  // Every executor holds its first index until all kWidth indices are
  // taken, so the caller and each of the 3 active workers run exactly one,
  // each on its own thread.
  std::latch all_in(kWidth);
  std::mutex mu;
  std::set<std::thread::id> on_worker, off_worker;
  TaskPool::instance().for_each(kWidth, [&](std::size_t) {
    all_in.arrive_and_wait();
    std::lock_guard<std::mutex> lock(mu);
    (TaskPool::on_worker() ? on_worker : off_worker)
        .insert(std::this_thread::get_id());
  });
  EXPECT_EQ(on_worker.size(), 3u);  // width 4 = caller + 3 workers
  ASSERT_EQ(off_worker.size(), 1u);
  EXPECT_EQ(off_worker.count(std::this_thread::get_id()), 1u);
}

TEST(TaskPool, DetachedTaskRunsEvenAtWidthOne) {
  // The pool keeps one worker alive at width 1 purely for detached
  // housekeeping (server shard drains must make progress on a 1-CPU box).
  ThreadScope scope(1);
  std::atomic<bool> ran{false};
  TaskPool::Task t;
  t.fn = [](void* p) {
    static_cast<std::atomic<bool>*>(p)->store(true, std::memory_order_release);
  };
  t.arg = &ran;
  ASSERT_TRUE(TaskPool::instance().submit_detached(&t));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!ran.load(std::memory_order_acquire)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "detached task never ran";
    std::this_thread::yield();
  }
}

TEST(TaskPool, ParallelForChunksMatchesSerialSplit) {
  for (const int width : {1, 4}) {
    ThreadScope scope(width);
    const std::ptrdiff_t n = 10000;
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    parallel_for_chunks(n, 64, [&](std::ptrdiff_t lo, std::ptrdiff_t hi) {
      for (std::ptrdiff_t i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
    });
    for (std::ptrdiff_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1)
          << "width " << width << " i=" << i;
  }
}

}  // namespace
