#include "parallel/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <limits>

#include "parallel/pool_metrics.hpp"

namespace mpx::parallel {

namespace {

/// Identifies which pool (if any) owns the current thread, for the
/// reentrancy guard.  A raw pointer is enough: it is only compared, never
/// dereferenced, and a worker thread cannot outlive its pool.
thread_local const ThreadPool* tlsOwnerPool = nullptr;

[[nodiscard]] std::size_t hardwareWorkers() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

std::size_t ParallelConfig::effectiveJobs() const noexcept {
  if (pool != nullptr) return pool->workers();
  return jobs == 0 ? hardwareWorkers() : jobs;
}

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t n = workers == 0 ? hardwareWorkers() : workers;
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { workerLoop(i); });
  }
  if constexpr (telemetry::kEnabled) {
    PoolMetrics::get().workers.recordMax(static_cast<std::int64_t>(n));
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::insideWorker() const noexcept { return tlsOwnerPool == this; }

void ThreadPool::enqueue(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::workerLoop(std::size_t /*index*/) {
  tlsOwnerPool = this;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void ThreadPool::parallelFor(std::size_t n, const ChunkFn& body) {
  if (n == 0) return;
  const std::size_t chunks = workers();

  // Reentrant call from a worker of THIS pool: run inline — queuing would
  // deadlock when every worker is already occupied by the outer loop.
  if (chunks <= 1 || insideWorker()) {
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = chunkRange(n, chunks, c);
      if (begin < end) body(begin, end, c);
    }
    return;
  }

  struct LoopState {
    std::size_t remaining = 0;  // guarded by mu
    std::atomic<std::uint64_t> busyNs{0};
    std::mutex mu;
    std::condition_variable done;
    // Lowest failing chunk index wins — what a serial loop would surface.
    std::size_t firstFailure = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  LoopState state;

  std::size_t live = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (auto [begin, end] = chunkRange(n, chunks, c); begin < end) ++live;
  }
  state.remaining = live;

  const auto wallStart = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto [begin, end] = chunkRange(n, chunks, c);
    if (begin >= end) continue;
    enqueue([&state, &body, begin, end, c] {
      const auto t0 = std::chrono::steady_clock::now();
      std::exception_ptr err;
      try {
        body(begin, end, c);
      } catch (...) {
        err = std::current_exception();
      }
      const auto t1 = std::chrono::steady_clock::now();
      state.busyNs.fetch_add(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()),
          std::memory_order_relaxed);
      // Decrement and notify under the lock: the waiter owns `state` on
      // its stack and returns as soon as it sees zero, so no worker may
      // touch `state` after releasing the lock with the count at zero.
      std::lock_guard<std::mutex> lk(state.mu);
      if (err && c < state.firstFailure) {
        state.firstFailure = c;
        state.error = err;
      }
      if (--state.remaining == 0) state.done.notify_one();
    });
  }

  {
    std::unique_lock<std::mutex> lk(state.mu);
    state.done.wait(lk, [&state] { return state.remaining == 0; });
  }

  if constexpr (telemetry::kEnabled) {
    const auto wallNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - wallStart)
                            .count();
    auto& m = PoolMetrics::get();
    m.parallelForTotal.add(1);
    m.chunksTotal.add(live);
    if (wallNs > 0) {
      const auto denom =
          static_cast<std::uint64_t>(wallNs) * static_cast<std::uint64_t>(chunks);
      const std::uint64_t pct =
          std::min<std::uint64_t>(100, state.busyNs.load() * 100 / denom);
      m.utilizationPct.recordMax(static_cast<std::int64_t>(pct));
    }
  }

  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace mpx::parallel
