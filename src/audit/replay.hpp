// Replay audit arm: deduplicated re-execution of the whole-run op log
// (DESIGN §16, after Tan et al.'s "The Efficient Server Audit
// Problem" — re-execution is the strongest oracle, deduplication is what
// makes it affordable).
//
// The structural arms (static checksum / structure / ranges / semantics)
// validate *well-formedness*; they are blind to values that are in-range
// and link-consistent yet wrong given the operation history — a stale
// field written through the store, a lost update, a phantom write. The
// replay auditor closes that gap: it re-executes the recorded op stream
// against a shadow region rebuilt from the pristine image and compares
// the shadow against the live region word-for-word. Any divergence is,
// by construction, a byte the operation history cannot explain.
//
// Deduplication: ops are grouped into per-(table, record) chains,
// segmented at lifecycle boundaries — every DBalloc starts a fresh chain,
// because Alloc fully determines the record's rebirth state, which both
// makes alloc-first chains record-agnostic and keeps a reused record
// slot from welding hundreds of independent call cycles into one
// undedupable mega-chain. Chains with the same signature — same table,
// same start state, same op sequence (op kinds, groups, fields,
// payloads) — must produce the same end state, so each unique chain is
// executed once and its end state reused for every duplicate. Telephone
// workloads are highly repetitive (every handoff is alloc → write →
// move → move → free with a small value alphabet), so the unique-chain
// count is a fraction of the chain count; A16 gates the resulting CPU
// saving.
//
// Determinism: unique chains execute on the worker pool into
// preallocated per-chain slots and the compare fans out over fixed-size
// region slices merged in slice order — findings, counters, and modelled
// costs are bit-identical at any `replay_threads` (same select →
// parallel → ordered-merge discipline as the chunk-parallel engine).
//
// Validity precondition: recording must begin at the pristine image
// (boot state), and every region mutation in between must have flowed
// through the instrumented API on a single recorded client. Audit
// *repairs* write the region outside the API, so a replay cycle is only
// meaningful against a run whose repairs are themselves under test —
// which is exactly the point: a repair that rewrote history shows up as
// a divergence attributed to the repaired span.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "audit/report.hpp"
#include "common/worker_pool.hpp"
#include "db/api.hpp"
#include "db/database.hpp"

namespace wtc::audit {

/// Modelled CPU cost of one re-executed op (microseconds, scaled by
/// kReplayCostScale like the engine's per-item costs).
inline constexpr std::uint32_t kReplayCostPerOp = 8;
/// Scale on the modelled per-item costs (kReplayCostPerOp and the
/// compare-slice cost), same convention as EngineConfig::cost_scale.
inline constexpr double kReplayCostScale = 10.0;

struct ReplayConfig {
  /// Worker count for chain execution and the shadow compare (1 = fully
  /// sequential). Results are bit-identical at any value.
  std::size_t replay_threads = 1;
  /// Region bytes per compare task. Fixed — independent of
  /// `replay_threads` — so task boundaries and the modelled makespan
  /// depend only on the region, never on the worker count.
  std::size_t compare_grain_bytes = 4096;
};

/// Outcome statistics of one replay cycle. All values are deterministic
/// functions of (pristine image, op log, live region, config).
struct ReplayStats {
  std::uint64_t total_ops = 0;      ///< update ops selected from the log
  std::uint64_t chains = 0;         ///< per-(table, record) chains formed
  std::uint64_t unique_chains = 0;  ///< distinct chain signatures
  std::uint64_t executed_ops = 0;   ///< ops actually re-executed (unique)
  std::uint64_t mismatched_words = 0;  ///< 32-bit words shadow != live

  /// Modelled CPU cost of naive full re-execution (every op + compare).
  sim::Duration naive_cost = 0;
  /// Modelled CPU cost actually booked (unique ops + compare).
  sim::Duration dedup_cost = 0;
  /// Modelled critical-path latency across `replay_threads` workers.
  sim::Duration makespan = 0;

  [[nodiscard]] std::uint64_t deduped() const noexcept {
    return chains - unique_chains;
  }
  /// Fraction of chains that were duplicates of an earlier one.
  [[nodiscard]] double duplicate_ratio() const noexcept {
    return chains == 0 ? 0.0
                       : static_cast<double>(deduped()) /
                             static_cast<double>(chains);
  }
};

struct ReplayResult {
  /// One finding per maximal contiguous mismatching span, in region
  /// order, attributed to (table, record, field) where the span allows.
  std::vector<Finding> findings;
  ReplayStats stats;
};

/// One-shot (or reused) replay checker over a database's op history.
class ReplayAuditor {
 public:
  ReplayAuditor(const db::Database& db, ReplayConfig config);

  /// Re-executes `events` (a whole-run op log, arrival order) and
  /// compares the resulting shadow region against the live region.
  [[nodiscard]] ReplayResult run(std::span<const db::ApiEvent> events);

  /// Groups `events` into chains and dedup classes the way run() does,
  /// executing and comparing nothing: fills `total_ops`, `chains`,
  /// `unique_chains` and `executed_ops` only.
  [[nodiscard]] ReplayStats classify(std::span<const db::ApiEvent> events);

 private:
  static constexpr std::uint32_t kNoChain = 0xFFFFFFFFu;
  /// One per-(table, record) op chain: its ops are
  /// `chain_ops_[chain_begin_[c] .. chain_begin_[c + 1])`.
  struct Chain {
    db::TableId table = db::kNoTable;
    db::RecordIndex record = 0;
    std::uint32_t unique = 0;  ///< its dedup class, into uniques_
  };

  [[nodiscard]] std::span<const std::uint32_t> ops_of(std::size_t chain) const noexcept {
    return std::span(chain_ops_).subspan(chain_begin_[chain],
                                         chain_begin_[chain + 1] - chain_begin_[chain]);
  }
  [[nodiscard]] std::size_t record_key(db::TableId t, db::RecordIndex r) const noexcept {
    return record_base_[t] + r;
  }
  void group(std::span<const db::ApiEvent> events, ReplayStats& stats);
  void dedup(std::span<const db::ApiEvent> events, ReplayStats& stats);
  [[nodiscard]] std::uint64_t chain_signature(
      std::size_t chain, std::span<const db::ApiEvent> events) const;
  /// Writes chain `chain`'s replayed end state into `state`: status,
  /// group, then every field (header id/next excluded: replay never
  /// changes the id tag, and links are recomputed per table).
  void execute_chain(std::size_t chain, std::span<const db::ApiEvent> events,
                     std::span<std::uint32_t> state) const;
  template <typename Job>
  void dispatch(std::size_t workers, const Job& job);

  const db::Database& db_;
  ReplayConfig config_;
  /// Created lazily when replay_threads > 1; reused across run() calls.
  std::unique_ptr<common::WorkerPool> pool_;
  /// Index of each table's record 0 among all records of the layout.
  std::vector<std::size_t> record_base_;

  // The chain table, rebuilt by every run() and classify(): chains in
  // creation order, their ops in one CSR array of event indices
  // (arrival order within a chain), each record's current (at the end:
  // last) chain, and one representative chain per dedup class.
  std::vector<Chain> chains_;
  std::vector<std::uint32_t> chain_begin_;
  std::vector<std::uint32_t> chain_ops_;
  std::vector<std::uint32_t> current_;
  std::vector<std::uint32_t> uniques_;
  std::unordered_map<std::uint64_t, std::uint32_t> unique_of_;  ///< signature -> class
  // Counting-sort scratch: each event's chain (kNoChain when replay
  // skips it) and each chain's fill cursor.
  std::vector<std::uint32_t> op_chain_;
  std::vector<std::uint32_t> cursor_;
  /// End states of the unique chains, back to back; unique u's starts at
  /// state_at_[u].
  std::vector<std::uint32_t> arena_;
  std::vector<std::size_t> state_at_;
  /// relink scratch, one table at a time.
  std::vector<std::uint32_t> links_;
};

}  // namespace wtc::audit
