// ThreadPool semantics: deterministic chunking, blocking parallelFor,
// exception propagation (lowest chunk index wins), submit futures, and the
// reentrancy guard.
#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

namespace mpx::parallel {
namespace {

TEST(ChunkRange, PartitionsWithoutGapsOrOverlap) {
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 100u, 1000u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 4u, 8u, 17u}) {
      std::size_t covered = 0;
      std::size_t prevEnd = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = chunkRange(n, chunks, c);
        ASSERT_LE(begin, end);
        if (begin < end) {
          ASSERT_EQ(begin, prevEnd) << "gap before chunk " << c;
          prevEnd = end;
          covered += end - begin;
        }
      }
      ASSERT_EQ(prevEnd, n) << "n=" << n << " chunks=" << chunks;
      ASSERT_EQ(covered, n);
    }
  }
}

TEST(ThreadPool, ParallelForVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.workers(), 4u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallelFor(hits.size(), [&](std::size_t b, std::size_t e,
                                    std::size_t /*c*/) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ChunkBoundariesAreTheStaticPartition) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::array<std::size_t, 3>> seen;
  pool.parallelFor(10, [&](std::size_t b, std::size_t e, std::size_t c) {
    std::lock_guard<std::mutex> lk(mu);
    seen.push_back({b, e, c});
  });
  ASSERT_EQ(seen.size(), 3u);  // 10 items over 3 workers: no empty chunk
  for (const auto& [b, e, c] : seen) {
    const auto [eb, ee] = chunkRange(10, 3, c);
    EXPECT_EQ(b, eb);
    EXPECT_EQ(e, ee);
  }
}

TEST(ThreadPool, ParallelForIsABarrier) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.parallelFor(100, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) done.fetch_add(1);
  });
  // All work completed by the time parallelFor returns.
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ManyTinyLoopsNeverOutliveTheirState) {
  // parallelFor keeps its completion state on the caller's stack.  The
  // last worker must be done with it before the caller can return, or a
  // later loop reuses the stack slot while a worker still locks the old
  // mutex (a hang, or a stack-use-after-return under ASan).  Many short
  // loops back to back hit that window: ThreadSanitizer reports a worker
  // touching destroyed state on nearly every run of this test.
  ThreadPool pool(4);
  constexpr std::size_t kLoops = 100000;
  std::atomic<std::size_t> items{0};
  for (std::size_t loop = 0; loop < kLoops; ++loop) {
    pool.parallelFor(4, [&](std::size_t b, std::size_t e, std::size_t) {
      items.fetch_add(e - b, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(items.load(), 4 * kLoops);
}

TEST(ThreadPool, LowestChunkIndexExceptionWins) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  try {
    // 4 items over 4 workers: chunk c covers exactly item c.
    pool.parallelFor(4, [&](std::size_t b, std::size_t, std::size_t c) {
      (void)b;
      if (c == 1) throw std::runtime_error("chunk-1");
      if (c == 3) throw std::runtime_error("chunk-3");
      completed.fetch_add(1);
    });
    FAIL() << "expected parallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk-1") << "lowest failing chunk must win";
  }
  // Non-throwing chunks all ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 2);
}

TEST(ThreadPool, SubmitDeliversResultsAndExceptions) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 6 * 7; });
  auto bad = pool.submit([]() -> int { throw std::logic_error("boom"); });
  EXPECT_EQ(ok.get(), 42);
  EXPECT_THROW(bad.get(), std::logic_error);
}

TEST(ThreadPool, ReentrantParallelForRunsInline) {
  ThreadPool pool(2);
  // Every worker is occupied by the outer task; a queued inner loop could
  // never start.  The guard must detect the worker context and run inline.
  auto fut = pool.submit([&pool] {
    EXPECT_TRUE(pool.insideWorker());
    std::atomic<int> hits{0};
    pool.parallelFor(8, [&](std::size_t b, std::size_t e, std::size_t) {
      for (std::size_t i = b; i < e; ++i) hits.fetch_add(1);
    });
    return hits.load();
  });
  EXPECT_EQ(fut.get(), 8);
  EXPECT_FALSE(pool.insideWorker());
}

TEST(ThreadPool, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  std::size_t sum = 0;  // no synchronization needed: runs on this thread
  pool.parallelFor(10, [&](std::size_t b, std::size_t e, std::size_t c) {
    EXPECT_EQ(c, 0u);
    for (std::size_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 45u);
}

TEST(ParallelConfig, ResolvesJobsAndEnabledState) {
  ParallelConfig serial;
  EXPECT_EQ(serial.effectiveJobs(), 1u);
  EXPECT_FALSE(serial.enabled());

  ParallelConfig four;
  four.jobs = 4;
  EXPECT_EQ(four.effectiveJobs(), 4u);
  EXPECT_TRUE(four.enabled());

  ParallelConfig hardware;
  hardware.jobs = 0;
  EXPECT_GE(hardware.effectiveJobs(), 1u);

  ThreadPool pool(3);
  ParallelConfig injected;
  injected.jobs = 1;  // the injected pool's width wins
  injected.pool = &pool;
  EXPECT_EQ(injected.effectiveJobs(), 3u);
  EXPECT_TRUE(injected.enabled());
}

}  // namespace
}  // namespace mpx::parallel
