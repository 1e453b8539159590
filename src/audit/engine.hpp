// The audit element's detection + recovery engine (§4.3).
//
// Implements the four audit techniques the paper's periodic audit runs —
// static-data checksum, dynamic-data range check, structural check, and
// semantic referential-integrity check — plus the targeted single-record
// check used by event-triggered audit and the selective attribute monitor
// (§4.4.2). The engine accesses the database region directly (Figure 1's
// "Direct Memory Access" path), bypassing the API and its locks; to keep
// audit results valid against concurrent client transactions it skips
// records written within a configurable grace window — the implementation
// analog of "if there is an intervening update to a record being accessed
// by an audit element, the result of the audit is invalidated" (§4.3).
//
// Every check returns its modelled CPU cost so the caller can book it on
// the shared Cpu — audits are not free, which is exactly what the Table-3
// call-setup-time overhead measures.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "audit/report.hpp"
#include "common/stats.hpp"
#include "common/worker_pool.hpp"
#include "db/database.hpp"
#include "sim/time.hpp"

namespace wtc::audit {

struct EngineConfig {
  bool static_check = true;
  bool semantic_check = true;
  bool selective_monitoring = false;

  /// Records written more recently than this are considered possibly
  /// mid-transaction and skipped by range/semantic checks.
  sim::Duration recent_write_grace = 500 * static_cast<sim::Duration>(sim::kMillisecond);

  /// Selective monitoring derives a field's value-frequency invariant only
  /// from at least this many samples (§4.4.2).
  std::size_t selective_min_records = 12;

  /// Incremental (dirty-tracking) audit: `incremental_pass` scans only
  /// data written through the store since each check's generation
  /// watermark — same per-item costs, a fraction of the items.
  bool incremental = false;
  /// Every Nth incremental cycle runs the old exhaustive pass, so
  /// raw-memory corruption that bypassed the write path (and therefore
  /// left no dirty stamp) is still caught within N periods. This is the
  /// coverage/cost knob: 1 degenerates to the exhaustive baseline, 0
  /// disables sweeps entirely (store-path coverage only). The escape rate
  /// it buys is measured by bench/ablation_incremental_audit.
  std::uint32_t full_sweep_interval = 10;

  // --- chunk-parallel detection (perf: multi-core audit) ---
  /// Worker count for the read-only detection phase of the static /
  /// structural / range scans (1 = fully sequential). Detection results
  /// are merged on the calling thread in deterministic chunk/record
  /// order, and all cost booking, findings, repairs, and obs output
  /// happen in that merge — so every output is bit-identical to the
  /// sequential engine at any thread count.
  std::size_t audit_threads = 1;
  /// Detection-task granularity (items per task: static chunks or
  /// records). Fixed — independent of `audit_threads` — so task
  /// boundaries, the `audit.parallel_tasks` count, and the modelled
  /// cycle makespan depend only on the work, never on the worker count.
  std::size_t parallel_grain = 64;

  // --- per-cycle CPU budget (overload policy) ---
  /// Modelled CPU allowance per full_pass/incremental_pass cycle, in µs
  /// of booked audit cost (0 = unlimited). A cycle that hits the budget
  /// truncates mid-scan — booking only the items it actually scanned —
  /// and carries the unfinished work units to the next cycle (FIFO, so
  /// no table starves under sustained overload). NOT multiplied by
  /// `cost_scale`: it is a CPU allowance, not a per-item cost.
  sim::Duration cycle_budget = 0;

  // --- modelled CPU cost (microseconds). The controller's production
  // database is far larger than this reproduction's, so `cost_scale`
  // multiplies the per-item costs to recreate the paper's audit CPU load
  // (Table 3's 69% call-setup overhead comes from this contention). ---
  std::uint32_t cost_per_record_structural = 60;
  std::uint32_t cost_per_field_range = 25;
  std::uint32_t cost_per_loop_semantic = 120;
  std::uint32_t cost_per_static_chunk = 40;
  std::uint32_t cost_event_check = 40;
  double cost_scale = 10.0;
};

/// Outcome of one check invocation.
struct CheckResult {
  std::uint32_t findings = 0;
  sim::Duration cost = 0;

  CheckResult& operator+=(const CheckResult& other) noexcept {
    findings += other.findings;
    cost += other.cost;
    return *this;
  }
};

/// How much of its data a periodic check visits.
enum class Scan : std::uint8_t {
  /// Every item: the paper's periodic audit ("the entire database is
  /// checked", §5.1).
  Exhaustive,
  /// Only data written through the store since the check's epoch
  /// watermark (DESIGN §8). Each scan captures the global write generation
  /// at its start and adopts it when it completes, so writes that race the
  /// scan stay dirty for the next one. Records skipped for any other
  /// reason (write-grace window, table lock) hold the watermark back so
  /// they are revisited. The content checks (range / selective / semantic)
  /// consume *field* generations: group relinks rewrite only header link
  /// words, so link churn does not force content rescans. The range check
  /// also skips freed records whose scrub attestation stands
  /// (field_generation == scrub_generation: the fields are catalog
  /// defaults by construction).
  Incremental,
};

class AuditEngine {
 public:
  AuditEngine(db::Database& db, EngineConfig config,
              std::function<sim::Time()> clock);

  void set_report_sink(ReportSink* sink) noexcept { sink_ = sink; }
  void set_client_control(ClientControl* control) noexcept { control_ = control; }

  /// Shard id stamped on every finding this engine reports (0 when
  /// unsharded). In a sharded deployment each shard owns its own engine;
  /// the stamp is what keeps merged finding streams attributable.
  void set_shard_id(std::uint32_t shard) noexcept { shard_id_ = shard; }

  // --- one-shot periodic checks ---
  // Each runs one work unit of the given scan mode to completion (no
  // budget), through the same path a budgeted cycle uses.

  /// Golden-checksum audit of all static data; recovery reloads corrupted
  /// chunks from disk (§4.3.1).
  CheckResult check_static(Scan scan = Scan::Exhaustive);

  /// Structural audit of one table's record headers (§4.3.2). Single
  /// errors are repaired in place; three consecutive corruptions trigger a
  /// full database reload.
  CheckResult check_structure(db::TableId t, Scan scan = Scan::Exhaustive);

  /// Range audit of one dynamic table's records (§4.3.1): active records
  /// against their catalog ranges (a violation frees the record), free
  /// records against their catalog defaults (a violation resets the field).
  CheckResult check_ranges(db::TableId t, Scan scan = Scan::Exhaustive);

  /// Referential-integrity audit following the FK loops from every active
  /// anchor record, plus orphan ("zombie") sweep (§4.3.3).
  CheckResult check_semantics(Scan scan = Scan::Exhaustive);

  /// Selective attribute monitoring of one table's unruled dynamic fields
  /// (§4.4.2): derive value-frequency invariants, escalate suspects.
  CheckResult check_selective(db::TableId t, Scan scan = Scan::Exhaustive);

  /// Targeted single-record check used by event-triggered audit: header,
  /// then the range scan's verdict for an active record, ignoring the
  /// write-grace window (the triggering write is the thing under
  /// suspicion).
  CheckResult check_record(db::TableId t, db::RecordIndex r);

  /// Full audit pass over the given table order (the periodic element's
  /// unprioritized cycle): static + per-table structure/ranges/selective +
  /// semantic loops, all exhaustive.
  CheckResult full_pass(const std::vector<db::TableId>& order);

  /// One incremental audit cycle over the given table order. Every
  /// `full_sweep_interval`-th call runs its units exhaustively instead
  /// (which also advances all watermarks) to bound the detection latency of
  /// corruption that bypassed the store's dirty tracking.
  CheckResult incremental_pass(const std::vector<db::TableId>& order);

  /// Exhaustive sweeps executed by `incremental_pass` so far.
  [[nodiscard]] std::uint64_t full_sweeps() const noexcept { return full_sweeps_; }
  [[nodiscard]] std::uint64_t incremental_cycles() const noexcept {
    return cycle_index_;
  }

  // --- parallel/budgeted cycle outcome (valid after full_pass /
  // incremental_pass; all values are deterministic functions of the
  // configuration and workload, independent of host scheduling) ---
  /// Modelled critical-path latency of the last cycle: per-scan detection
  /// tasks greedily assigned to `audit_threads` workers in task order,
  /// serial scans (semantic/selective) added whole. Equals the cycle's
  /// booked cost when audit_threads == 1.
  [[nodiscard]] sim::Duration last_cycle_makespan() const noexcept {
    return last_makespan_;
  }
  [[nodiscard]] sim::Duration total_makespan() const noexcept {
    return total_makespan_;
  }
  /// Cycles that ran out of budget before draining their work queue.
  [[nodiscard]] std::uint64_t budget_exhausted_cycles() const noexcept {
    return budget_exhausted_cycles_;
  }
  /// Work units pushed to a later cycle so far (deferrals + truncations).
  [[nodiscard]] std::uint64_t deferred_units_total() const noexcept {
    return deferred_units_total_;
  }
  /// Units currently carried over, waiting for the next cycle's budget.
  [[nodiscard]] std::size_t carry_depth() const noexcept { return carry_.size(); }
  /// Dirty-grid chunks overlapping table `t`'s span written since the
  /// older of its structure/ranges watermarks — the "pressure" signal the
  /// budgeted cycle ranks tables by.
  [[nodiscard]] std::uint64_t table_dirty_chunks(db::TableId t) const;

  /// For non-engine elements (e.g. the progress indicator) to report
  /// through the same sink; stamps the time.
  void report_external(Finding finding) { report(std::move(finding)); }

  /// Deterministic critical path of `task_costs` greedily assigned (in
  /// task order, to the least-loaded worker) across `workers` workers;
  /// `load` is the caller's scratch for the per-worker totals.
  /// Shared by the engine's own scans and the replay audit's makespan
  /// model, so both book parallel cost under the same discipline.
  [[nodiscard]] static sim::Duration greedy_makespan(
      const std::vector<sim::Duration>& task_costs, std::size_t workers,
      std::vector<sim::Duration>& load);

 private:
  void report(Finding finding);
  // Findings spanning a whole record, its header (a structural repair) and
  // one field.
  [[nodiscard]] Finding record_finding(Technique technique, Recovery recovery,
                                       db::TableId t, db::RecordIndex r) const;
  [[nodiscard]] Finding header_finding(db::TableId t, db::RecordIndex r) const;
  [[nodiscard]] Finding field_finding(Technique technique, Recovery recovery,
                                      db::TableId t, db::RecordIndex r,
                                      db::FieldId f) const;
  [[nodiscard]] bool recently_written(db::TableId t, db::RecordIndex r) const;
  /// Frees `r` and terminates the thread that last wrote it.
  void free_and_terminate(db::TableId t, db::RecordIndex r, Technique technique);
  /// Follows the FK chain from (t, r); returns false on violation.
  [[nodiscard]] bool loop_intact(db::TableId t, db::RecordIndex r,
                                 std::vector<std::pair<db::TableId, db::RecordIndex>>&
                                     chain) const;

  static constexpr sim::Duration kUnlimited =
      std::numeric_limits<sim::Duration>::max();

  /// Carried progress of a budget-truncated scan. `resume` is an absolute
  /// item index (static chunk / record / flattened semantic ordinal):
  /// items below it were scanned — and booked — by an earlier installment
  /// of the same scan. `mark` is the epoch watermark captured when the
  /// scan first started, held back below every record a skip left
  /// unverified (grace window, locks); it is adopted only when the scan
  /// completes, so writes landing between installments stay dirty.
  struct ScanProgress {
    std::size_t resume = 0;
    std::uint64_t mark = 0;
    std::uint32_t consecutive = 0;  ///< structural consecutive-bad run
    bool started = false;
    bool truncated = false;  ///< set by a scan that hit its budget
  };

  /// One schedulable slice of an audit cycle, and the only way a periodic
  /// check runs. The cycle's work queue is carried units (FIFO) followed by
  /// this cycle's fresh units; a unit that hits the budget re-queues
  /// itself with its ScanProgress.
  struct WorkUnit {
    enum class Kind : std::uint8_t { Static, Structure, Ranges, Selective, Semantics };
    Kind kind = Kind::Static;
    db::TableId table = db::kNoTable;
    Scan scan = Scan::Exhaustive;  ///< frozen at enqueue: a truncated sweep
                                   ///< unit finishes exhaustively next cycle
    ScanProgress progress;
  };

  /// Installment bookkeeping shared by every scan (defined in engine.cpp).
  class Installment;

  // The technique scans, one per WorkUnit::Kind, dispatched by run_unit.
  // `budget` is the remaining cycle allowance (kUnlimited for one-shot
  // checks).
  CheckResult static_scan(WorkUnit& unit, sim::Duration budget);
  CheckResult structure_scan(WorkUnit& unit, sim::Duration budget);
  CheckResult ranges_scan(WorkUnit& unit, sim::Duration budget);
  CheckResult semantics_scan(WorkUnit& unit, sim::Duration budget);
  CheckResult selective_scan(WorkUnit& unit);

  /// Read-only verdict for one record of the range rule. `checked` fields
  /// were examined (each books one cost_per_field_range); `violations` is a
  /// bit per FieldId that failed its rule (schemas cap tables at
  /// db::kMaxFieldsPerTable = 64 fields).
  struct RangeVerdict {
    enum class Kind : std::uint8_t { Skip, Grace, Free, Active };
    Kind kind = Kind::Skip;
    std::uint32_t checked = 0;
    std::uint64_t violations = 0;
  };
  /// The range rule of one record, shared by the range scan's detection
  /// phase and the event check. Ignores the write-grace window: callers
  /// that honour it test recently_written first.
  [[nodiscard]] RangeVerdict range_verdict(db::TableId t, db::RecordIndex r) const;
  /// Range recovery of one record from its verdict, shared by the range
  /// scan and the event check: an active record's violation frees the
  /// record, a free record's violations reset their fields. Returns the
  /// findings reported.
  std::uint32_t recover_ranges(db::TableId t, db::RecordIndex r,
                               const RangeVerdict& verdict);

  /// Runs `detect(i)` for every i in [0, items) — a read-only verdict
  /// computation with no obs/log/region writes — partitioned into
  /// `parallel_grain`-sized tasks, on the worker pool when
  /// audit_threads > 1. The tasks count as audit.parallel_tasks whether or
  /// not a pool ran them, so the counter is identical at any thread count.
  template <typename Detect>
  void parallel_detect(std::size_t items, const Detect& detect);

  /// Runs one work unit to completion with no budget (the one-shot checks).
  CheckResult run_alone(WorkUnit::Kind kind, db::TableId t, Scan scan);
  /// Runs one work unit against `budget` remaining cycle allowance;
  /// tallies the scan and updates scan_makespan_.
  CheckResult run_unit(WorkUnit& unit, sim::Duration budget);
  /// One budgeted, carried, prioritized cycle over the unit queue, booked
  /// as one audit pass traced as `span_name`.
  CheckResult run_cycle(const std::vector<db::TableId>& order, Scan scan,
                        const char* span_name);

  db::Database& db_;
  EngineConfig config_;
  std::function<sim::Time()> clock_;
  ReportSink* sink_ = nullptr;
  ClientControl* control_ = nullptr;
  std::uint32_t shard_id_ = 0;
  /// Golden CRCs of static-data chunks, computed from the pristine image.
  struct StaticChunk {
    std::size_t offset;
    std::size_t length;
    std::uint32_t golden_crc;
  };
  std::vector<StaticChunk> static_chunks_;
  /// Per-scan temporaries, reused so a scan allocates nothing once they
  /// have grown to the largest table. There is one set per calling thread,
  /// shared by every engine that scans on it (a sharded database's shard
  /// engines audit one after another), so a thread keeps one set sized to
  /// the largest table it audits. run_unit lends it to one scan at a time.
  struct ScanScratch {
    /// db::group_links scratch for the structural scan.
    std::vector<std::uint32_t> links;
    /// Items a scan installment selected: static chunk indexes, or records.
    std::vector<std::size_t> selected_chunks;
    std::vector<db::RecordIndex> selected_records;
    /// Per selected item: clean (static) / corrupt (structural) verdicts
    /// and range verdicts, written by the detection phase.
    std::vector<char> verdict_flags;
    std::vector<RangeVerdict> range_verdicts;
    /// Booked cost per detection task of the running installment, and the
    /// per-worker totals greedy_makespan folds it into.
    std::vector<sim::Duration> task_cost;
    std::vector<sim::Duration> worker_load;
    /// The semantic scan's per-table anchor selection, its loop walk and
    /// its orphan sweep's referenced set.
    std::vector<std::vector<char>> walk;
    std::vector<std::pair<db::TableId, db::RecordIndex>> chain;
    std::vector<char> referenced;
    bool lent = false;
  };
  /// The calling thread's set, while run_unit runs a scan.
  ScanScratch* scratch_ = nullptr;
  /// A cycle's work queue.
  std::vector<WorkUnit> queue_;

  // --- incremental-audit state ---
  std::uint64_t static_watermark_ = 0;
  std::uint64_t semantic_watermark_ = 0;
  std::vector<std::uint64_t> structure_watermark_;  ///< per table
  std::vector<std::uint64_t> ranges_watermark_;     ///< per table
  std::vector<std::uint64_t> selective_watermark_;  ///< per table
  std::uint64_t cycle_index_ = 0;
  std::uint64_t full_sweeps_ = 0;
  /// Reverse-reference index, precomputed from the schema: for each table
  /// t, every (table, field) whose ForeignKey references t. The semantic
  /// audit's orphan sweep walks this instead of rescanning the schema, and
  /// the incremental variant uses it to prove a table's referencedness
  /// cannot have changed.
  std::vector<std::vector<std::pair<db::TableId, db::FieldId>>> referencing_;
  /// Tables that anchor semantic loop walks (dynamic + FK-bearing).
  std::vector<char> anchor_table_;
  /// Per table, its first ForeignKey / PrimaryKey field (or none): the loop
  /// walk's next hop and the key it must match. Tables with a PrimaryKey
  /// are the orphan-sweep candidates.
  std::vector<db::FieldId> fk_field_;
  std::vector<db::FieldId> pk_field_;
  /// Per-anchor dirty sets: the loop anchor each record last belonged to,
  /// so a write to any chain member re-walks exactly that loop.
  std::vector<std::vector<std::pair<db::TableId, db::RecordIndex>>> chain_anchor_;

  // --- parallel/budgeted cycle state ---
  /// Detection worker pool, created lazily when audit_threads > 1.
  std::unique_ptr<common::WorkerPool> pool_;
  /// Work deferred by budget exhaustion, run first next cycle (FIFO).
  std::deque<WorkUnit> carry_;
  /// Critical-path cost of the last scan (set by every scan; equals the
  /// scan's booked cost for serial scans).
  sim::Duration scan_makespan_ = 0;
  sim::Duration last_makespan_ = 0;
  sim::Duration total_makespan_ = 0;
  std::uint64_t budget_exhausted_cycles_ = 0;
  std::uint64_t deferred_units_total_ = 0;
  /// Flattened (table, record) ordinal bases for the semantic scan's
  /// resume indexing: ordinal(t, r) = record_ordinal_base_[t] + r.
  std::vector<std::size_t> record_ordinal_base_;
  std::size_t total_records_ = 0;
};

}  // namespace wtc::audit
