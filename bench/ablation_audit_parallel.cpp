// Ablation A14: chunk-parallel, CPU-budgeted audit engine.
//
// Two claims, two phases:
//
//   latency phase   The audit engine's detection work (static chunks,
//                   record headers, field ranges) is data-parallel over
//                   the dirty grid; splitting it across a worker pool
//                   cuts the modelled audit-cycle latency (the critical
//                   path) while every *output* — findings, repairs,
//                   booked CPU, escape rates — stays bit-identical to the
//                   sequential engine at any thread count. Arms: 1/2/4/8
//                   audit threads over a Table-5-scale controller schema.
//
//   budget phase    Under overload (audit demand exceeding the per-cycle
//                   CPU allowance) the budgeted engine truncates mid-scan,
//                   books only what it scanned, and carries the rest
//                   FIFO — so audit CPU per cycle is pinned at the budget
//                   while coverage degrades to longer detection latency
//                   instead of unbounded CPU. Arm: budget = half the
//                   measured sequential demand (2x overload) at the
//                   production cost scale.
//
// Gates (exit nonzero on failure):
//   * aggregate outcomes identical across all thread arms (the
//     determinism contract — escape-rate delta is therefore exactly 0,
//     well under the 0.1 pp tolerance),
//   * cycle-latency speedup at --audit-threads (default 4) >= 2x,
//   * budgeted arm's mean audit CPU per cycle <= 1.05x the budget with
//     the budget actually binding (most cycles exhausted).
//
// Flags: --runs=N (default 5), --duration=SECONDS (default 400),
//        --scale=N (Table-5 multiplier, default 64),
//        --audit-threads=N (headline speedup arm, default 4),
//        --audit-budget=US (per-cycle budget; default 0 = half the
//        measured sequential demand), --json=PATH
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "common/table_printer.hpp"
#include "report.hpp"

using namespace wtc;

namespace {

using common::percent;

struct Arm {
  std::string name;
  std::size_t threads = 1;
  experiments::AggregateAuditResult result;
};

experiments::AuditRunParams latency_params(std::size_t scale,
                                           std::size_t duration_s) {
  auto params = bench::table2_params();
  params.duration = static_cast<sim::Duration>(duration_s) *
                    static_cast<sim::Duration>(sim::kSecond);
  // Table-5 proportions over the controller schema: the big mostly-static
  // bulk plus hot dynamic tables, large enough that detection dominates.
  params.schema.process_records = static_cast<db::RecordIndex>(4 * scale);
  params.schema.connection_records = static_cast<db::RecordIndex>(4 * scale);
  params.schema.resource_records = static_cast<db::RecordIndex>(5 * scale);
  params.schema.config_records = static_cast<db::RecordIndex>(2 * scale);
  params.schema.subscriber_records = static_cast<db::RecordIndex>(4 * scale);
  // Cost scale 1: client timing near-identical across arms, so identical
  // escape rates measure determinism, not contention. The latency ratio is
  // scale-invariant (every per-item cost is multiplied uniformly).
  params.audit.engine.cost_scale = 1.0;
  // Finer detection tasks than the engine default so even the smallest
  // table splits across 8 workers. Fixed across all arms: task boundaries
  // (and so the makespan model) depend on the data, never on the worker
  // count — the determinism gate covers this.
  params.audit.engine.parallel_grain = 8;
  params.seed = 0x0A14;
  return params;
}

experiments::AggregateAuditResult run_latency_arm(std::size_t threads,
                                                  std::size_t scale,
                                                  std::size_t duration_s,
                                                  std::size_t runs) {
  auto params = latency_params(scale, duration_s);
  params.audit.engine.audit_threads = threads;
  return experiments::run_audit_series(params, runs);
}

/// Everything that must be identical across thread arms — i.e. every
/// aggregate field except the cycle latency (which shrinking is the
/// point). RunningStats accumulate in run order, so equality is exact.
bool same_outcome(const experiments::AggregateAuditResult& a,
                  const experiments::AggregateAuditResult& b) {
  const auto& ba = a.breakdown;
  const auto& bb = b.breakdown;
  return a.injected == b.injected && a.escaped == b.escaped &&
         a.caught == b.caught && a.no_effect == b.no_effect &&
         a.audit_cycles == b.audit_cycles && a.full_sweeps == b.full_sweeps &&
         a.budget_exhausted_cycles == b.budget_exhausted_cycles &&
         a.deferred_units == b.deferred_units &&
         a.setup_ms.mean() == b.setup_ms.mean() &&
         a.detection_latency_s.mean() == b.detection_latency_s.mean() &&
         a.audit_cost_per_cycle_us.mean() == b.audit_cost_per_cycle_us.mean() &&
         ba.structural_detected == bb.structural_detected &&
         ba.structural_escaped == bb.structural_escaped &&
         ba.static_detected == bb.static_detected &&
         ba.static_escaped == bb.static_escaped &&
         ba.dynamic_range_detected == bb.dynamic_range_detected &&
         ba.dynamic_semantic_detected == bb.dynamic_semantic_detected &&
         ba.dynamic_escaped_timing == bb.dynamic_escaped_timing &&
         ba.dynamic_escaped_no_rule == bb.dynamic_escaped_no_rule &&
         ba.no_effect == bb.no_effect;
}

void print_latency(const std::vector<Arm>& arms) {
  common::TablePrinter table({"Audit threads", "Cycle latency (us)",
                              "Audit us/cycle", "Caught %", "Escaped %",
                              "Speedup"});
  const double base = arms.front().result.cycle_latency_us.mean();
  for (const auto& arm : arms) {
    const auto& r = arm.result;
    const double latency = r.cycle_latency_us.mean();
    table.add_row({std::to_string(arm.threads), common::fmt(latency, 0),
                   common::fmt(r.audit_cost_per_cycle_us.mean(), 0),
                   common::fmt(percent(r.caught, r.injected), 1) + "%",
                   common::fmt(percent(r.escaped, r.injected), 1) + "%",
                   common::fmt(latency > 0.0 ? base / latency : 0.0, 2) + "x"});
  }
  std::printf("--- latency phase (Table-5 scale, cost scale 1) ---\n\n%s\n",
              table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 5);
  const std::size_t duration_s = bench::flag(argc, argv, "duration", 400);
  const std::size_t scale = bench::flag(argc, argv, "scale", 64);
  const std::size_t gate_threads = bench::flag(argc, argv, "audit-threads", 4);
  const std::size_t budget_flag = bench::flag(argc, argv, "audit-budget", 0);
  const std::string json_path =
      bench::flag_str(argc, argv, "json", "BENCH_audit_parallel.json");
  bench::campaign_init(argc, argv);

  std::printf("=== Ablation A14: chunk-parallel, CPU-budgeted audit "
              "(%zu runs per arm, %zus each, scale %zu) ===\n\n",
              runs, duration_s, scale);

  // --- latency phase ---
  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(), gate_threads) ==
      thread_counts.end()) {
    thread_counts.push_back(gate_threads);
  }
  std::vector<Arm> arms;
  for (const std::size_t threads : thread_counts) {
    arms.push_back({std::to_string(threads) + " threads", threads,
                    run_latency_arm(threads, scale, duration_s, runs)});
  }
  print_latency(arms);

  bench::Report report("audit_parallel");
  const Arm& sequential = arms.front();
  const Arm* gate_arm = &sequential;
  for (const Arm& arm : arms) {
    if (arm.threads == gate_threads) {
      gate_arm = &arm;
    }
    report.gate(same_outcome(sequential.result, arm.result),
                "outcome at " + std::to_string(arm.threads) +
                    " audit threads differs from sequential "
                    "(determinism violation)");
  }
  const double escape_delta =
      percent(gate_arm->result.escaped, gate_arm->result.injected) -
      percent(sequential.result.escaped, sequential.result.injected);
  report.gate(std::fabs(escape_delta) <= 0.1,
              "escape-rate delta " + common::fmt(escape_delta, 3) +
                  " pp exceeds 0.1 pp");
  const double seq_latency = sequential.result.cycle_latency_us.mean();
  const double par_latency = gate_arm->result.cycle_latency_us.mean();
  const double speedup = par_latency > 0.0 ? seq_latency / par_latency : 0.0;
  report.gate(speedup >= 2.0, "cycle-latency speedup " +
                                  common::fmt(speedup, 2) + "x at " +
                                  std::to_string(gate_threads) +
                                  " threads is below the 2x gate");

  // --- budget phase (production cost scale, Table-2 schema) ---
  auto budget_params = bench::table2_params();
  budget_params.duration = static_cast<sim::Duration>(duration_s) *
                           static_cast<sim::Duration>(sim::kSecond);
  budget_params.seed = 0x0B14;
  const experiments::AggregateAuditResult unbudgeted =
      experiments::run_audit_series(budget_params, runs);
  const double demand = unbudgeted.audit_cost_per_cycle_us.mean();
  const sim::Duration budget =
      budget_flag != 0 ? static_cast<sim::Duration>(budget_flag)
                       : static_cast<sim::Duration>(demand / 2.0);
  budget_params.audit.engine.cycle_budget = budget;
  const experiments::AggregateAuditResult budgeted =
      experiments::run_audit_series(budget_params, runs);
  const double budgeted_cost = budgeted.audit_cost_per_cycle_us.mean();
  const double budget_ratio =
      budget > 0 ? budgeted_cost / static_cast<double>(budget) : 0.0;
  const double exhausted_share =
      budgeted.audit_cycles == 0
          ? 0.0
          : static_cast<double>(budgeted.budget_exhausted_cycles) /
                static_cast<double>(budgeted.audit_cycles);
  const double unbudgeted_escaped =
      percent(unbudgeted.escaped, unbudgeted.injected);
  const double budgeted_escaped = percent(budgeted.escaped, budgeted.injected);

  common::TablePrinter budget_table(
      {"Configuration", "Audit us/cycle", "Budget", "Exhausted %",
       "Deferred units", "Escaped %"});
  budget_table.add_row(
      {"unbudgeted", common::fmt(demand, 0), "-", "-", "0",
       common::fmt(unbudgeted_escaped, 1) + "%"});
  budget_table.add_row(
      {"budget = demand/2", common::fmt(budgeted_cost, 0),
       std::to_string(static_cast<long long>(budget)),
       common::fmt(100.0 * exhausted_share, 1) + "%",
       std::to_string(static_cast<long long>(budgeted.deferred_units)),
       common::fmt(budgeted_escaped, 1) + "%"});
  std::printf("--- budget phase (production cost scale, 2x overload) "
              "---\n\n%s\n",
              budget_table.render().c_str());

  report.gate(budget_ratio <= 1.05, "budgeted audit CPU/cycle is " +
                                         common::fmt(budget_ratio, 3) +
                                         "x the budget (gate: <= 1.05x)");
  report.gate(exhausted_share >= 0.5,
              "budget bound only " + common::fmt(100.0 * exhausted_share, 1) +
                  "% of cycles — the overload arm is not overloaded");

  std::printf("Cycle-latency speedup at %zu threads: %.2fx; escape-rate "
              "delta %.3f pp; budgeted CPU/cycle %.3fx budget "
              "(%.0f%% of cycles exhausted).\n",
              gate_threads, speedup, escape_delta, budget_ratio,
              100.0 * exhausted_share);

  using bench::Json;
  Json latency_arms = Json::array();
  for (const Arm& arm : arms) {
    const auto& r = arm.result;
    latency_arms.push(Json::object(
        {{"threads", arm.threads},
         {"cycle_latency_us", Json::fixed(r.cycle_latency_us.mean(), 1)},
         {"audit_us_per_cycle",
          Json::fixed(r.audit_cost_per_cycle_us.mean(), 1)},
         {"audit_cycles", r.audit_cycles},
         {"injected", r.injected},
         {"caught_pct", Json::fixed(percent(r.caught, r.injected), 2)},
         {"escaped_pct", Json::fixed(percent(r.escaped, r.injected), 2)}}));
  }
  report.add("runs", runs)
      .add("duration_s", duration_s)
      .add("scale", scale)
      .add("latency_arms", std::move(latency_arms))
      .add("speedup", Json::fixed(speedup, 3))
      .add("gate_threads", gate_threads)
      .add("escape_delta_pp", Json::fixed(escape_delta, 4))
      .add("budget",
           Json::object(
               {{"demand_us_per_cycle", Json::fixed(demand, 1)},
                {"budget_us", static_cast<long long>(budget)},
                {"budgeted_us_per_cycle", Json::fixed(budgeted_cost, 1)},
                {"ratio", Json::fixed(budget_ratio, 4)},
                {"exhausted_share", Json::fixed(exhausted_share, 3)},
                {"deferred_units", budgeted.deferred_units},
                {"unbudgeted_escaped_pct", Json::fixed(unbudgeted_escaped, 2)},
                {"budgeted_escaped_pct", Json::fixed(budgeted_escaped, 2)}}));
  report.add_gate_verdicts();
  return report.finish(json_path);
}
