// Fixed thread pool for trial-level parallelism: parallel_for only.
//
// Workers sleep until a parallel_for call publishes a job, then claim
// indices from one shared atomic counter until the range is exhausted, so
// uneven trial durations balance without per-worker queues. A call
// allocates nothing: the body is passed by reference through a function
// pointer and a context pointer. The pool makes no ordering promises --
// determinism is the caller's job (see sim::SweepRunner, which gives every
// trial an independent seed-derived Rng stream and writes results into
// index-addressed slots).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace mmr {

class ThreadPool {
 public:
  /// Spawn `num_threads` workers; 0 means hardware_jobs().
  explicit ThreadPool(std::size_t num_threads = 0);

  /// Joins the workers (no job is in flight once parallel_for returned).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run body(i) for every i in [0, n) on the workers and block until all
  /// complete. If any invocation throws, the exception from the lowest
  /// index is rethrown (the remaining iterations still run). Calls from
  /// several threads run one at a time. Must be called from outside the
  /// pool's own workers.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body) {
    using B = std::remove_reference_t<Body>;
    run(n, [](void* ctx, std::size_t i) { (*static_cast<B*>(ctx))(i); },
        const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// Hardware concurrency, clamped to at least 1.
  static std::size_t hardware_jobs();

 private:
  using Invoke = void (*)(void* ctx, std::size_t i);

  void run(std::size_t n, Invoke invoke, void* ctx);
  /// Claim and run indices of the current job until none remain.
  void drain();
  void worker_loop();
  /// Wake every worker to exit and join it.
  void stop_and_join();

  std::mutex call_mutex_;  ///< serializes parallel_for callers
  std::mutex mutex_;  ///< guards the fields below, but next_ and workers_
  std::condition_variable wake_;  ///< a job was published, or stop_
  std::condition_variable idle_;  ///< the last worker left the job
  // The current job; published under mutex_ with a new generation_.
  Invoke invoke_ = nullptr;
  void* ctx_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};  ///< next unclaimed index
  std::uint64_t generation_ = 0;
  std::size_t busy_ = 0;  ///< workers that have not finished the job
  std::exception_ptr error_;  ///< lowest-index failure of the job
  std::size_t error_index_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;  ///< last: the threads use the above
};

}  // namespace mmr
