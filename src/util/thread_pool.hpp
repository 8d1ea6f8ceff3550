// Work-stealing-free, dead-simple thread pool with a parallel_for helper.
//
// Used for embarrassingly parallel parameter sweeps in the benches (each
// (utilization, seed) cell is independent) and by the analysis engine to fan
// independent shard solves and batched what-if probes over the cores.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gmfnet {

class ThreadPool {
 public:
  /// `threads == 0` means std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw (std::terminate otherwise).
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void wait_idle();

  /// Runs body(i) for i in [0, n), distributing chunks over the pool, and
  /// waits for completion.  Safe to call from one thread at a time: an
  /// internal mutex serializes concurrent calls from different threads, and
  /// a nested call from one of this pool's own workers (which could never
  /// finish — the caller occupies the very worker it would wait on) throws
  /// std::logic_error before enqueuing anything.
  ///
  /// Exception-safe: if a body call throws, remaining iterations are
  /// cancelled (already-started chunks finish their current call), the pool
  /// drains, and the first exception is rethrown in the caller — so a
  /// throwing probe surfaces to the engine's caller instead of
  /// std::terminate'ing a worker.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  [[nodiscard]] bool called_from_worker() const;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::mutex parallel_for_mu_;  ///< serializes parallel_for callers
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Standalone one-shot parallel_for over a transient pool sized to the
/// hardware. Handy in benches where no pool object is around.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t threads = 0);

}  // namespace gmfnet
