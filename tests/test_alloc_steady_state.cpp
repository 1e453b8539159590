// Steady-state allocation check for the simulation hot path.
//
// A Table-2 audit-arm run is a stream of small events (API notifications,
// heartbeats, timers, call phases, audit cycles). Once a run has built its
// environment, none of them may allocate: the scheduler keeps callables
// inline in reused slots, messages carry their args inline, and the audit
// engine reuses its per-scan buffers. This executable replaces the global
// operator new with a counting one and checks that a 2000-s run allocates
// no more often than a 200-s run, with injections off and on, and with
// four audit threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_util.hpp"
#include "experiments/audit_runner.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define WTC_SANITIZER_OWNS_NEW 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define WTC_SANITIZER_OWNS_NEW 1
#endif
#endif

#ifndef WTC_SANITIZER_OWNS_NEW
namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> allocations{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
  if (counting.load(std::memory_order_relaxed)) {
    allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) {
    size = 1;
  }
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment, (size + alignment - 1) / alignment * alignment);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace wtc {
namespace {

#ifndef WTC_SANITIZER_OWNS_NEW
/// Allocations made by one default Table-2 audit-arm run of `seconds`.
std::uint64_t run_allocations(int seconds, bool injections, std::size_t audit_threads) {
  auto params = bench::table2_params();
  params.duration = seconds * static_cast<sim::Duration>(sim::kSecond);
  params.audits_enabled = true;
  params.injections_enabled = injections;
  params.audit.engine.audit_threads = audit_threads;
  if (audit_threads > 1) {
    // Table 2's tables hold at most 20 records: a grain of 4 splits their
    // scans into several tasks, so the worker pool runs them.
    params.audit.engine.parallel_grain = 4;
  }
  allocations.store(0);
  counting.store(true);
  const auto result = experiments::run_audit_experiment(params);
  counting.store(false);
  EXPECT_GT(result.audit_cycles, 0u);
  return allocations.load();
}
#endif

void expect_steady_state(bool injections, std::size_t audit_threads = 1) {
#ifdef WTC_SANITIZER_OWNS_NEW
  (void)injections;
  (void)audit_threads;
  GTEST_SKIP() << "the sanitizer runtime supplies operator new, so a "
                  "replacement counter would bypass its checks";
#else
  // Warm-up: one-time statics (per-thread scratch, logging) are paid here.
  (void)run_allocations(200, injections, audit_threads);
  const std::uint64_t short_run = run_allocations(200, injections, audit_threads);
  const std::uint64_t long_run = run_allocations(2000, injections, audit_threads);
  std::printf("injections %s, %zu audit thread(s): %llu allocations in 200 s, "
              "%llu in 2000 s\n",
              injections ? "on" : "off", audit_threads,
              static_cast<unsigned long long>(short_run),
              static_cast<unsigned long long>(long_run));
  EXPECT_GT(short_run, 0u);  // the counter sees the run's setup
  EXPECT_LE(long_run, short_run)
      << "allocations grow with simulated time: something on the event path "
         "allocates per event or per audit cycle";
#endif
}

TEST(AllocSteadyState, LongRunAllocatesNoMoreThanShortRunWithoutInjections) {
  expect_steady_state(false);
}

TEST(AllocSteadyState, LongRunAllocatesNoMoreThanShortRunWithInjections) {
  expect_steady_state(true);
}

// Chunk-parallel detection: the pool takes each dispatch's job by address
// and the makespan model folds task costs into a reused buffer.
TEST(AllocSteadyState, LongRunAllocatesNoMoreThanShortRunWithFourAuditThreads) {
  expect_steady_state(true, 4);
}

}  // namespace
}  // namespace wtc
