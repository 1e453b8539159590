#include "common/worker_pool.hpp"

#include <utility>

namespace wtc::common {

WorkerPool::WorkerPool(std::size_t threads) {
  threads_.reserve(threads);
  for (std::size_t slot = 0; slot < threads; ++slot) {
    threads_.emplace_back([this, slot]() { thread_main(slot); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& thread : threads_) {
    thread.join();
  }
}

void WorkerPool::thread_main(std::size_t slot) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    JobFn fn = nullptr;
    const void* context = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&]() { return stop_ || epoch_ != seen_epoch; });
      if (stop_) {
        return;
      }
      seen_epoch = epoch_;
      if (slot >= participating_) {
        continue;  // this dispatch wants fewer workers than the pool has
      }
      fn = job_fn_;
      context = job_context_;
    }
    // Pool thread `slot` is worker index slot + 1 (index 0 is the caller).
    const std::size_t index = slot + 1;
    std::exception_ptr error;
    try {
      fn(context, index);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Hand the exception over whole: once the caller is woken it may
      // rethrow and destroy it, so this thread must hold no reference.
      if (error) {
        errors_[index] = std::move(error);
      }
      if (--remaining_ == 0) {
        done_cv_.notify_all();
      }
    }
  }
}

void WorkerPool::run(std::size_t workers, JobFn fn, const void* context) {
  if (workers == 0) {
    return;
  }
  const std::size_t pooled = std::min(workers - 1, threads_.size());
  if (pooled > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    job_fn_ = fn;
    job_context_ = context;
    participating_ = pooled;
    remaining_ = pooled;
    errors_.assign(workers, nullptr);
    ++epoch_;
    start_cv_.notify_all();
  } else {
    errors_.assign(workers, nullptr);
  }
  // The calling thread is worker 0 and also picks up any indexes the pool
  // is too small to cover.
  for (std::size_t index = 0; index < workers;
       index = (index == 0 ? pooled + 1 : index + 1)) {
    try {
      fn(context, index);
    } catch (...) {
      errors_[index] = std::current_exception();
    }
  }
  if (pooled > 0) {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&]() { return remaining_ == 0; });
    job_fn_ = nullptr;
    job_context_ = nullptr;
  }
  for (auto& error : errors_) {
    if (error) {
      std::exception_ptr first = error;
      errors_.clear();
      std::rethrow_exception(first);
    }
  }
  errors_.clear();
}

}  // namespace wtc::common
