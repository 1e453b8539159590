// Reusable fork/join worker pool, extracted from the campaign runner's
// per-campaign thread spawning so the audit engine (and any future
// fan-out) can share one implementation.
//
// The pool owns N host threads that sleep between dispatches. A
// `dispatch(workers, job)` call runs `job(0) .. job(workers-1)` exactly
// once each — index 0 on the calling thread, the rest on pool threads —
// and returns only after every invocation finished (fork/join barrier).
// If `workers` exceeds `threads() + 1` the calling thread runs the
// surplus indexes serially after its own, so a dispatch never deadlocks
// on an undersized pool.
//
// Exceptions thrown by a job are captured and the first one (lowest
// worker index) is rethrown on the calling thread after the join, so a
// failing worker cannot leave the pool wedged. Dispatches must not be
// nested or issued concurrently from multiple threads: the pool is a
// fork/join primitive, not a task queue.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace wtc::common {

class WorkerPool {
 public:
  /// Spawns `threads` pool threads (0 is valid: every dispatch then runs
  /// entirely on the calling thread).
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs `job(i)` for every i in [0, workers); blocks until all return.
  /// The pool holds `job` by address only, so a dispatch never copies or
  /// allocates for it.
  template <typename Job>
  void dispatch(std::size_t workers, const Job& job) {
    run(workers, &invoke<Job>, &job);
  }

  [[nodiscard]] std::size_t threads() const noexcept { return threads_.size(); }

 private:
  /// A job as a plain function pointer over an opaque context.
  using JobFn = void (*)(const void* context, std::size_t index);
  template <typename Job>
  static void invoke(const void* context, std::size_t index) {
    (*static_cast<const Job*>(context))(index);
  }

  void run(std::size_t workers, JobFn fn, const void* context);
  void thread_main(std::size_t slot);

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  JobFn job_fn_ = nullptr;
  const void* job_context_ = nullptr;
  std::uint64_t epoch_ = 0;       ///< bumped per dispatch; wakes sleepers
  std::size_t participating_ = 0;  ///< pool threads active this epoch
  std::size_t remaining_ = 0;      ///< pool threads not yet finished
  std::vector<std::exception_ptr> errors_;  ///< per worker index, this epoch
  bool stop_ = false;
};

}  // namespace wtc::common
