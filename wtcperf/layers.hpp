// Per-layer measurement for the traced runs.
//
// Each workload fills a LayerValues from its own traced phase where the
// layer does work in it, and from the standalone layer drives below where
// it does not, so every traced run reports every per-layer metric. The
// drives call one layer's public functions on fixed inputs and time them:
//   sim      Scheduler::schedule_at + step
//   vm       VmProcess::run_quantum over build_call_program, no monitor
//   pecos    the same program under a forwarding ExecMonitor around
//            PecosMonitor; CfLog::record + drain
//   inject   a forwarding RegionObserver around CorruptionOracle while a
//            recorded Table-3 op stream is re-applied through DbApi
//   audit    AuditEngine::check_* and full_pass on a clean database
#pragma once

#include <string>
#include <vector>

#include "audit/engine.hpp"
#include "db/database.hpp"
#include "harness.hpp"

namespace wtcperf {

/// Measured per-item wall time of each audit technique beside the
/// modelled cost the engine books for the same item.
struct AuditTiming {
  double static_ns_per_chunk = 0.0;
  double structure_ns_per_record = 0.0;
  double ranges_ns_per_field = 0.0;
  double semantics_ns_per_loop = 0.0;
  double static_modelled_us = 0.0;
  double structure_modelled_us = 0.0;
  double ranges_modelled_us = 0.0;
  double semantics_modelled_us = 0.0;
  double cycle_ms = 0.0;
  double cycle_modelled_ms = 0.0;
  /// The database had no FK loop, so the semantic technique was timed on
  /// live_controller_database() instead.
  bool semantics_elsewhere = false;
  /// Findings on the (clean) database: anything but 0 is a false alarm.
  std::uint64_t findings = 0;
};

/// A controller database holding live call state: the final region of a
/// clean (injection-free) Table-3 run at workload seed `seed`, installed as
/// a fresh boot image.
std::unique_ptr<wtc::db::Database> live_controller_database(std::uint64_t seed);

/// Times each check on `db` (which must be clean). `config` is the
/// workload's own engine configuration, so the modelled column is the
/// cost the workload's audits book.
AuditTiming time_audit(wtc::db::Database& db, const wtc::audit::EngineConfig& config,
                       SpanLog& spans);

/// The modelled-vs-measured report lines for `timing`.
std::vector<std::string> audit_report(const AuditTiming& timing);

/// Op-log layer numbers (decode, encode, apply, replay audit).
struct OplogTiming {
  double decode_mb_per_s = 0.0;
  double encode_mb_per_s = 0.0;
  double disk_bytes_per_event = 0.0;
  double mem_bytes_per_event = 0.0;
  double apply_ns_per_op = 0.0;
  double replay_ns_per_event = 0.0;
  double replay_exec_share = 0.0;
};

/// Per-op-type timing of the database API.
struct DbOpTiming {
  OpTimer alloc, free, move, write_fld, read_rec, transfer;
  [[nodiscard]] double total_ns() const {
    return alloc.ns + free.ns + move.ns + write_fld.ns + read_rec.ns + transfer.ns;
  }
  [[nodiscard]] std::uint64_t mutating() const {
    return alloc.count + free.count + move.count + write_fld.count + transfer.count;
  }
};

struct LayerValues {
  // sim
  double sim_events_per_run = 0.0;
  double sim_ns_per_event = 0.0;
  double sim_max_pending = 0.0;
  // db
  DbOpTiming db_ops;
  double db_reads = 0.0;
  double db_writes = 0.0;
  double db_splices = 0.0;
  double db_resyncs = 0.0;
  double db_rebuilds = 0.0;
  /// Mutating ops the rebuild rate is taken over (workload-defined).
  double db_mutating_ops = 0.0;
  double db_build_ms = 0.0;
  double db_region_mb = 0.0;
  // audit
  AuditTiming audit;
  double audit_checks = 0.0;
  double audit_passes = 0.0;
  double audit_cf_slices = 0.0;
  double audit_cf_transitions = 0.0;
  // inject
  double oracle_write_ns = 0.0;
  double oracle_read_ns = 0.0;
  double oracle_ns_per_call = 0.0;
  double oracle_calls_per_run = 0.0;
  double injections = 0.0;
  // vm / pecos
  double vm_instructions = 0.0;
  double vm_ns_per_instr = 0.0;
  double pecos_checks = 0.0;
  double pecos_ns_per_check = 0.0;
  double cf_log_ns_per_record = 0.0;
  double pecos_cf_transitions = 0.0;
  // callproc / manager
  double callproc_calls = 0.0;
  double callproc_modelled_setup_ms = 0.0;
  double manager_heartbeats = 0.0;
  double manager_heals = 0.0;
  // op log / experiments
  OplogTiming oplog;
};

/// Fills the counters every workload reads the same way from the traced
/// phase's obs snapshot.
void fill_counts(LayerValues& values, const wtc::obs::MetricsSnapshot& traced,
                 std::uint64_t traced_runs);

/// Runs the drives for the layers a workload leaves unmeasured: sim, vm,
/// pecos, CF log and the injection oracle always (they are drives by
/// definition); the caller fills the rest.
void run_standard_drives(LayerValues& values, const Options& options,
                         SpanLog& spans);

/// Op-log drive for the workloads without an op log of their own: one
/// pass of oplog_replay's pipeline over the shipped handoff-storm capture
/// (defined in oplog_replay.cpp).
OplogTiming drive_oplog(const Options& options, SpanLog& spans);

/// Database API drive for the workloads that do not time single API ops:
/// a small seeded plan through ShardedDbApi (defined in shard.cpp).
DbOpTiming drive_db_ops(std::uint64_t seed, SpanLog& spans);

/// The per-layer metrics in BENCHMARK.json order.
std::vector<Metric> layer_metrics(const LayerValues& values);

}  // namespace wtcperf
