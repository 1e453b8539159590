// Prioritized audit triggering (§4.4.1).
//
// Ranks database tables by a weighted measure of importance — access
// frequency, the nature of the object, and recent error history — and
// schedules audits so that more important tables are checked more often.
// Selection uses deficit scheduling: each table accrues credit in
// proportion to its importance share and the highest-credit table is
// audited next, so audit *frequency* tracks importance while every table
// is still visited (no starvation).
#pragma once

#include <cstdint>
#include <vector>

#include "db/database.hpp"

namespace wtc::audit {

struct PriorityWeights {
  double access_frequency = 0.6;  ///< heavily used tables corrupt & propagate more
  double error_history = 0.3;     ///< temporal locality of data errors
  double nature = 0.1;            ///< intrinsic importance of the object
};

class PriorityScheduler {
 public:
  explicit PriorityScheduler(const db::Database& db,
                             PriorityWeights weights = {});

  /// Importance share of each table in [0,1], summing to 1 — derived from
  /// the database's runtime statistics at this instant.
  [[nodiscard]] std::vector<double> shares() const;

  /// Picks the next table to audit (prioritized mode) and charges its
  /// deficit. Never starves a table: credit accrues every call.
  [[nodiscard]] db::TableId next_prioritized();

  /// Picks the next table in fixed rotation (unprioritized baseline).
  [[nodiscard]] db::TableId next_round_robin();

  /// Table order for a CPU-budgeted cycle: every table, ranked by audit
  /// pressure — dirty-chunk count first (most unverified writes), then
  /// previous-cycle error count (temporal locality of corruption), then
  /// importance share, then table id for determinism. Under overload the
  /// budget runs out mid-cycle, so the tables most likely to hold
  /// undetected corruption must come first; the carry queue (not this
  /// ranking) is what guarantees the tail is never starved.
  [[nodiscard]] std::vector<db::TableId> ranked_by_pressure(
      const std::vector<std::uint64_t>& dirty_chunks) const;

  /// Snapshot + clear the per-cycle error counters (call at cycle starts
  /// so `errors_last_cycle` means "previous cycle" during ranking).
  void begin_cycle(db::Database& db);

 private:
  const db::Database& db_;
  PriorityWeights weights_;
  std::vector<double> credit_;
  std::vector<std::uint64_t> prev_cycle_errors_;
  std::size_t rr_next_ = 0;
};

}  // namespace wtc::audit
