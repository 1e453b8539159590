// Ablation A11: the parallel Monte-Carlo campaign runner.
//
// Every table/figure/ablation is a campaign of independent per-seed
// simulation runs; the campaign runner (DESIGN.md §9) fans them out
// across hardware threads and merges results in seed order. This bench
// verifies the two claims that make that safe and worthwhile:
//
//   1. Determinism: the parallel campaign's aggregate is byte-identical
//      to the serial (--jobs=1) aggregate — same CSV rows, bit for bit.
//   2. Speedup: wall-clock time of an A10-style campaign (the Table-2
//      audit-effectiveness workload under the hybrid incremental audit)
//      at --jobs=N versus --jobs=1. On hardware with >= N cores the
//      expectation is >= 3x at N = 4; a core-starved host caps the
//      achievable speedup at its hardware_concurrency, which is reported
//      alongside the measurement.
//
// Micro-check section: raw scheduler event throughput. The scheduler's
// hot path used to maintain an unordered_set of pending event ids
// (hash insert on every schedule_at, hash erase on every step) purely to
// support the rare cancel(); it now uses in-place tombstones and no
// hashing. The micro-check measures events/s of the tombstone scheduler
// against the same loop paying an emulated per-event hash insert+erase.
//
// Flags: --runs=N (default 8), --duration=SECONDS (default 1000),
//        --jobs=N (default 4), --json=PATH
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "report.hpp"
#include "sim/scheduler.hpp"

using namespace wtc;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The A10-style workload: Table-2 audit-effectiveness campaign under the
/// hybrid incremental audit.
experiments::AuditRunParams workload(std::size_t duration_s) {
  auto params = bench::table2_params();
  params.duration = static_cast<sim::Duration>(duration_s) *
                    static_cast<sim::Duration>(sim::kSecond);
  params.audits_enabled = true;
  params.audit.engine.incremental = true;
  params.audit.engine.full_sweep_interval = 10;
  params.seed = 0xA11;
  return params;
}

/// Renders an aggregate as the CSV row used for the parallel-vs-serial
/// equality check: every counter plus the order-sensitive float stats.
std::string aggregate_csv_row(const experiments::AggregateAuditResult& r) {
  std::string row;
  for (const std::string& cell :
       {std::to_string(r.injected), std::to_string(r.escaped),
        std::to_string(r.caught), std::to_string(r.no_effect),
        common::fmt(r.setup_ms.mean(), 6), common::fmt(r.setup_ms.stddev(), 6),
        common::fmt(r.detection_latency_s.mean(), 6),
        common::fmt(r.detection_latency_s.stddev(), 6),
        common::fmt(r.audit_cost_per_cycle_us.mean(), 6),
        std::to_string(r.audit_cycles), std::to_string(r.full_sweeps),
        std::to_string(r.breakdown.structural_detected),
        std::to_string(r.breakdown.static_detected),
        std::to_string(r.breakdown.dynamic_range_detected),
        std::to_string(r.breakdown.dynamic_semantic_detected),
        std::to_string(r.breakdown.dynamic_escaped_timing),
        std::to_string(r.breakdown.dynamic_escaped_no_rule),
        std::to_string(r.breakdown.no_effect)}) {
    row += (row.empty() ? "" : ",") + cell;
  }
  return row;
}

/// Scheduler event-throughput micro-check. `emulate_pending_set` pays the
/// retired design's per-event cost: a hash insert at schedule time and a
/// hash erase per fired event.
double scheduler_events_per_s(bool emulate_pending_set) {
  sim::Scheduler sched;
  constexpr std::uint64_t kEvents = 2'000'000;
  std::unordered_set<sim::EventId> pending;
  std::uint64_t fired = 0;
  sim::EventId last_id = 0;
  std::function<void()> tick = [&]() {
    if (emulate_pending_set) {
      pending.erase(last_id);
    }
    if (++fired < kEvents) {
      last_id = sched.schedule_after(1, tick);
      if (emulate_pending_set) {
        pending.insert(last_id);
      }
    }
  };
  last_id = sched.schedule_after(1, tick);
  if (emulate_pending_set) {
    pending.insert(last_id);
  }
  const auto start = Clock::now();
  sched.run();
  const double elapsed = seconds_since(start);
  return elapsed > 0.0 ? static_cast<double>(fired) / elapsed : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 8);
  const std::size_t duration_s = bench::flag(argc, argv, "duration", 1000);
  const std::size_t jobs = bench::flag(argc, argv, "jobs", 4);
  const std::string json_path =
      bench::flag_str(argc, argv, "json", "BENCH_parallel_campaign.json");
  bench::campaign_init(argc, argv);

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("=== Ablation A11: parallel campaign runner (%zu runs x %zu s, "
              "%zu jobs, %u hardware threads) ===\n\n",
              runs, duration_s, jobs, hw);

  // --- micro-check: scheduler event throughput ---
  const double sched_tombstone = scheduler_events_per_s(false);
  const double sched_hashset = scheduler_events_per_s(true);
  const double sched_speedup =
      sched_hashset > 0.0 ? sched_tombstone / sched_hashset : 0.0;
  std::printf("Scheduler micro-check: %.1f M events/s (tombstone cancel) vs "
              "%.1f M events/s (+ emulated pending-id hash set): %.2fx\n\n",
              sched_tombstone / 1e6, sched_hashset / 1e6, sched_speedup);

  // --- campaign wall-clock: serial vs parallel, identical seeds ---
  const auto params = workload(duration_s);

  experiments::set_default_campaign_jobs(1);
  const auto serial_start = Clock::now();
  const auto serial = experiments::run_audit_series(params, runs);
  const double serial_s = seconds_since(serial_start);

  experiments::set_default_campaign_jobs(jobs);
  const auto parallel_start = Clock::now();
  const auto parallel = experiments::run_audit_series(params, runs);
  const double parallel_s = seconds_since(parallel_start);

  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  const std::string serial_row = aggregate_csv_row(serial);
  const std::string parallel_row = aggregate_csv_row(parallel);
  const bool equal = serial_row == parallel_row;

  common::TablePrinter table({"Arm", "Jobs", "Wall (s)", "Speedup"});
  table.add_row({"serial", "1", common::fmt(serial_s, 2), "1.00"});
  table.add_row({"parallel", std::to_string(jobs), common::fmt(parallel_s, 2),
                 common::fmt(speedup, 2)});
  std::printf("%s\n", table.render().c_str());

  std::printf("Aggregate equality (parallel vs serial CSV row): %s\n",
              equal ? "IDENTICAL" : "MISMATCH");
  if (!equal) {
    std::printf("  serial:   %s\n  parallel: %s\n", serial_row.c_str(),
                parallel_row.c_str());
  }
  std::printf("Expected: >= 3x wall-clock speedup at --jobs=4 on hardware "
              "with >= 4 cores (this host: %u), byte-identical aggregates "
              "at any job count.\n",
              hw);

  using bench::Json;
  bench::Report report("parallel_campaign");
  report.gate(equal, "parallel aggregate differs from the serial one");
  report.add("runs", runs)
      .add("duration_s", duration_s)
      .add("jobs", jobs)
      .add("hardware_concurrency", hw)
      .add("serial_wall_s", Json::fixed(serial_s, 3))
      .add("parallel_wall_s", Json::fixed(parallel_s, 3))
      .add("speedup", Json::fixed(speedup, 2))
      .add("aggregates_equal", equal)
      .add("scheduler_events_per_s", Json::fixed(sched_tombstone, 0))
      .add("scheduler_events_per_s_with_hashset", Json::fixed(sched_hashset, 0))
      .add("scheduler_speedup", Json::fixed(sched_speedup, 2));
  return report.finish(json_path);
}
