// Fixed-size worker pool with a chunked parallel_for.
//
// All parallelism in the simulator is data-parallel over players or objects;
// a simple chunk-claiming loop keeps results deterministic (each index is
// processed exactly once, and per-index RNG streams are derived from stable
// keys, never from thread identity).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace colscore {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Wraps each participating thread's whole chunk-claiming loop (not each
  /// chunk): the pool calls scope(loop) once per thread, and the callable
  /// runs loop() inside whatever per-thread context it establishes.
  /// ExecPolicy uses this to bind a workspace slot to the worker for the
  /// duration of its participation.
  using ThreadScope = std::function<void(const std::function<void()>&)>;

  /// Runs body(i) for every i in [begin, end); blocks until done.
  /// Exceptions from body are rethrown (first one wins).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 0, const ThreadScope& scope = {});

  /// Process-wide pool backing ExecPolicy::process_default(), sized from
  /// hardware concurrency on first use. Library code never names it
  /// directly (lint rule CL012) — it reaches the pool through an ExecPolicy.
  static ThreadPool& global();
  /// Overrides the global pool thread count (rebuilds the pool). Reserved
  /// for the CLI entry point; tests and library code hold their own pools
  /// behind explicit ExecPolicy instances instead.
  static void reset_global(std::size_t threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Blocking sleep, used by the suite runner's retry backoff and the fault
/// plan's injected delays. Lives with the pool so blocking-wait machinery
/// (and the <thread> include) stays confined to the threading layer — the
/// rest of the tree reaches wall time only through colscore::Timer.
/// Sleeping occupies the calling pool worker; that is the documented cost of
/// retrying a failed run in place (ordered emission needs the run finished
/// on its claimed index anyway). No-op for seconds <= 0.
void sleep_for_seconds(double seconds);

}  // namespace colscore
