// Fixed-size thread pool — the shared execution runtime.
//
// One pool per deployment; every parallel stage (monitor epoch flush,
// per-shard aggregate and match, k-means assignment, question matching)
// borrows its workers instead of spawning threads of its own.  Two usage
// shapes:
//
//  * submit(fn) -> std::future<R>: one-shot tasks.
//  * parallel_for(begin, end, body): data-parallel loops.  The index range
//    is cut into fixed chunks *independently of the thread count*, helper
//    tasks are pushed onto the shared queue, and the *calling thread
//    participates* in chunk execution.  Caller participation makes nested
//    parallelism safe: a flush task running on a worker can itself call
//    parallel_for (k-means inside the summarizer) and will simply execute
//    every chunk inline when no other worker is free — progress is
//    guaranteed without growing the pool.
//
// Determinism contract: parallel_for guarantees every index is executed
// exactly once with disjoint writes assumed; chunk *boundaries* depend only
// on (range, grain), never on the thread count or scheduling, so any
// per-chunk accumulation a caller performs is reproducible.  Stages that
// need bit-identical floating-point results against the serial path compute
// per-index values in parallel and reduce serially in index order (see
// summarize::kmeans and core::JaalController).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/runtime_stats.hpp"

namespace jaal::runtime {

class ThreadPool {
 public:
  /// Spawns `threads` workers.  Throws std::invalid_argument for zero — a
  /// poolless (serial) configuration is expressed by not creating a pool,
  /// not by an empty one.
  explicit ThreadPool(std::size_t threads);

  /// Drains nothing: outstanding tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t threads() const noexcept {
    return workers_.size();
  }

  /// Enqueues one task; the future carries its result (or exception).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs body(i) for every i in [begin, end) across the pool, with the
  /// calling thread participating.  `grain` is the chunk size (indices per
  /// task); 0 picks one aiming at ~4 chunks per thread.  Chunk boundaries
  /// are a pure function of (range, grain) — see the determinism contract
  /// above.  Exceptions from `body` propagate to the caller (first one
  /// wins; remaining chunks still run).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0);

  /// Work/latency counters shared by everything running on this pool.
  [[nodiscard]] RuntimeStats& stats() noexcept { return stats_; }
  [[nodiscard]] const RuntimeStats& stats() const noexcept { return stats_; }

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable ready_;
  bool stopping_ = false;
  RuntimeStats stats_;
};

/// Thread count from the JAAL_THREADS environment variable; `fallback` when
/// unset, empty, or unparsable.  0 in the variable means "all hardware
/// threads".
[[nodiscard]] std::size_t threads_from_env(std::size_t fallback = 1);

}  // namespace jaal::runtime
