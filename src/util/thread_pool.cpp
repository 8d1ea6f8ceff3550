#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace gmfnet {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lk(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
    {
      std::lock_guard lk(mu_);
      --in_flight_;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

bool ThreadPool::called_from_worker() const {
  const auto self = std::this_thread::get_id();
  for (const std::thread& w : workers_) {
    if (w.get_id() == self) return true;
  }
  return false;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (called_from_worker()) {
    throw std::logic_error(
        "ThreadPool::parallel_for: nested call from a worker of the same "
        "pool would deadlock");
  }
  std::lock_guard pf_lock(parallel_for_mu_);
  if (n == 0) return;
  const std::size_t nthreads = std::max<std::size_t>(1, size());
  if (nthreads <= 1) {
    // A one-worker pool adds no parallelism: run inline on the caller and
    // skip the queue/condvar round trip entirely.  An exception propagates
    // directly, matching the pooled path's first-exception-cancels
    // semantics.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  const std::size_t chunk = (n + nthreads - 1) / nthreads;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> cancelled{false};
  std::mutex error_mu;
  std::exception_ptr error;
  for (std::size_t t = 0; t < nthreads; ++t) {
    submit([&, chunk, n] {
      for (;;) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        const std::size_t begin = next.fetch_add(chunk);
        if (begin >= n) return;
        const std::size_t end = std::min(begin + chunk, n);
        for (std::size_t i = begin; i < end; ++i) {
          if (cancelled.load(std::memory_order_relaxed)) return;
          try {
            body(i);
          } catch (...) {
            cancelled.store(true, std::memory_order_relaxed);
            const std::lock_guard lk(error_mu);
            if (!error) error = std::current_exception();
            return;
          }
        }
      }
    });
  }
  wait_idle();
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  ThreadPool pool(threads);
  pool.parallel_for(n, body);
}

}  // namespace gmfnet
