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

 private:
  /// Replayed end state of one record (header id/next excluded: replay
  /// never changes the id tag, and links are recomputed per table).
  struct RecordState {
    std::uint32_t status = 0;
    std::uint32_t group = 0;
    std::vector<std::int32_t> fields;
  };
  /// One per-(table, record) op chain, ops as indices into the event
  /// span (kept in arrival order).
  struct Chain {
    db::TableId table = db::kNoTable;
    db::RecordIndex record = 0;
    std::vector<std::uint32_t> ops;
    std::uint64_t signature = 0;
    std::size_t unique_index = 0;  ///< into the executed unique set
  };

  [[nodiscard]] std::uint64_t chain_signature(
      const Chain& chain, std::span<const db::ApiEvent> events) const;
  [[nodiscard]] RecordState execute_chain(
      const Chain& chain, std::span<const db::ApiEvent> events) const;
  template <typename Job>
  void dispatch(std::size_t workers, const Job& job);

  const db::Database& db_;
  ReplayConfig config_;
  /// Created lazily when replay_threads > 1; reused across run() calls.
  std::unique_ptr<common::WorkerPool> pool_;
};

}  // namespace wtc::audit
