// Experiment runner for the audit-effectiveness evaluations:
// Table 3 / Table 4 / Figure 3 (§5.1) and the ablations built on the same
// environment (event-triggered audit, audit-period sensitivity, selective
// monitoring).
//
// Environment (Figure 1): controller database + audit process under a
// heartbeat-monitored manager + the multi-threaded native call-processing
// client + the database bit-flip injector, all on one simulated node
// sharing one CPU.
#pragma once

#include <vector>

#include "audit/process.hpp"
#include "callproc/native_client.hpp"
#include "db/controller_schema.hpp"
#include "inject/db_injector.hpp"
#include "inject/oracle.hpp"

namespace wtc::experiments {

struct AuditRunParams {
  /// Table 2 defaults.
  sim::Duration duration = 2000 * static_cast<sim::Duration>(sim::kSecond);
  bool audits_enabled = true;
  /// Spawn the corruption injector (off for clean recording runs: a
  /// clean run's region must be explainable by its op log alone).
  bool injections_enabled = true;
  inject::DbInjectorConfig injector;
  audit::AuditProcessConfig audit;
  db::ControllerSchemaParams schema;
  std::uint64_t seed = 1;

  // --- op-log record/replay (ISSUE 10) ---
  /// Stream-record the whole-run op log to this file (empty = none).
  std::string record_oplog_path;
  /// Drive the run from a captured log via the zero-simulation engine
  /// instead of simulating call processing (empty = simulate normally).
  std::string replay_oplog_path;
  /// Copy the final region bytes into the result (byte-identity gates).
  bool capture_final_region = false;
};

struct AuditRunResult {
  inject::OracleSummary oracle;
  std::vector<inject::InjectionRecord> injections;
  callproc::NativeCallClient::Stats client;
  std::uint64_t audit_cycles = 0;
  std::uint64_t audit_findings = 0;
  /// Total modelled audit CPU booked by periodic cycles (simulated time
  /// units); divide by `audit_cycles` for the per-cycle cost the
  /// incremental-audit ablation compares.
  sim::Duration audit_cost = 0;
  /// Exhaustive sweeps the incremental engine ran (0 for the baseline).
  std::uint64_t full_sweeps = 0;
  /// Modelled critical-path latency summed over all periodic cycles:
  /// equals `audit_cost` at audit_threads == 1, shrinks toward
  /// cost / audit_threads as detection parallelizes. The booked CPU
  /// (audit_cost) is unchanged by threading — only the makespan moves.
  sim::Duration audit_makespan = 0;
  /// Cycles whose work queue outlived the configured CPU budget.
  std::uint64_t budget_exhausted_cycles = 0;
  /// Work units pushed to a later cycle (budget deferrals + truncations).
  std::uint64_t deferred_units = 0;
  std::uint32_t manager_restarts = 0;
  double avg_setup_ms = 0.0;

  // --- op-log record/replay (ISSUE 10) ---
  /// Successful API events captured by the run's RunOpLog tee.
  std::uint64_t oplog_recorded = 0;
  /// Replay-audit cycles executed and the last cycle's statistics.
  std::uint64_t replay_runs = 0;
  audit::ReplayStats replay;
  /// Update ops re-applied / outcome divergences (zero-simulation runs).
  std::uint64_t replay_applied = 0;
  std::uint64_t replay_divergences = 0;
  /// Final region bytes (when `capture_final_region`).
  std::vector<std::byte> final_region;
};

[[nodiscard]] AuditRunResult run_audit_experiment(const AuditRunParams& params);

/// Table 4's row structure: per-error-type detection/escape accounting.
struct ErrorBreakdown {
  std::size_t structural_detected = 0;
  std::size_t structural_escaped = 0;
  std::size_t static_detected = 0;
  std::size_t static_escaped = 0;
  std::size_t dynamic_range_detected = 0;
  std::size_t dynamic_semantic_detected = 0;
  std::size_t dynamic_escaped_timing = 0;   ///< rule existed, audit was late
  std::size_t dynamic_escaped_no_rule = 0;  ///< no enforceable rule
  std::size_t no_effect = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return structural_detected + structural_escaped + static_detected +
           static_escaped + dynamic_range_detected + dynamic_semantic_detected +
           dynamic_escaped_timing + dynamic_escaped_no_rule + no_effect;
  }
};

[[nodiscard]] ErrorBreakdown classify_injections(
    const std::vector<inject::InjectionRecord>& injections);

/// Aggregates several runs (the paper uses 30) of the same configuration.
struct AggregateAuditResult {
  std::size_t injected = 0;
  std::size_t escaped = 0;
  std::size_t caught = 0;
  std::size_t no_effect = 0;
  common::RunningStats setup_ms;
  common::RunningStats detection_latency_s;
  /// Per-run mean audit CPU per periodic cycle, in simulated µs.
  common::RunningStats audit_cost_per_cycle_us;
  /// Per-run mean modelled cycle latency (makespan / cycles), in µs.
  common::RunningStats cycle_latency_us;
  std::uint64_t audit_cycles = 0;
  std::uint64_t full_sweeps = 0;
  std::uint64_t budget_exhausted_cycles = 0;
  std::uint64_t deferred_units = 0;
  ErrorBreakdown breakdown;
};

[[nodiscard]] AggregateAuditResult run_audit_series(AuditRunParams params,
                                                    std::size_t runs);

}  // namespace wtc::experiments
