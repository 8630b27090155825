#include "common/thread_pool.h"

#include <utility>

namespace mmr {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = hardware_jobs();
  workers_.reserve(num_threads);
  try {
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    stop_and_join();  // the threads already started must not outlive us
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::hardware_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void ThreadPool::run(std::size_t n, Invoke invoke, void* ctx) {
  if (n == 0) return;
  std::lock_guard<std::mutex> call(call_mutex_);
  std::unique_lock<std::mutex> lock(mutex_);
  invoke_ = invoke;
  ctx_ = ctx;
  n_ = n;
  next_.store(0, std::memory_order_relaxed);
  error_ = nullptr;
  busy_ = workers_.size();
  ++generation_;
  wake_.notify_all();
  // Every worker must leave the job before the body (and ctx) go out of
  // scope, even one that wakes after the range is exhausted.
  idle_.wait(lock, [this] { return busy_ == 0; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void ThreadPool::drain() {
  for (;;) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return;
    try {
      invoke_(ctx_, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_ || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    drain();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--busy_ == 0) idle_.notify_one();
  }
}

}  // namespace mmr
