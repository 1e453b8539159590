// Hierarchical recovery escalation.
//
// The paper's §2 traces its recovery design to the 5ESS maintenance
// software: "The hierarchical error recovery strategy aims to restore
// system operation by making localized repairs whenever possible and
// escalate to more global actions only if necessary." The audit engine's
// recoveries are the localized repairs; this policy watches the finding
// stream and escalates when localized repair is evidently not holding:
//
//   level 0  localized repairs (the engine's own recovery actions)
//   level 1  table reload from disk — a table keeps producing findings
//            within the window despite repairs
//   level 2  full database reload — multiple tables are degenerating
//
// Escalations are themselves reported as findings so the operator (and
// the experiment oracle) can see them.
#pragma once

#include <cstdint>
#include <vector>

#include "audit/report.hpp"
#include "db/database.hpp"
#include "sim/time.hpp"

namespace wtc::audit {

struct EscalationConfig {
  /// Sliding window over which findings are counted.
  sim::Duration window = 30 * static_cast<sim::Duration>(sim::kSecond);
  /// Findings on ONE table within the window that trigger a table reload.
  std::uint32_t table_reload_threshold = 8;
};

/// Tables escalated to reload within one window that trigger a full
/// database reload.
inline constexpr std::uint32_t kFullReloadThreshold = 3;
/// Cooldown after an escalation before the same level can fire again.
inline constexpr sim::Duration kEscalationCooldown =
    60 * static_cast<sim::Duration>(sim::kSecond);

/// Watches findings and performs the §2-style escalation. Attach it as a
/// tee on the audit engine's report stream.
class EscalationPolicy {
 public:
  EscalationPolicy(db::Database& db, EscalationConfig config);

  /// Feeds one finding; may perform a table or full reload as a side
  /// effect. Returns the recovery taken (None if no escalation fired).
  Recovery on_finding(const Finding& finding, sim::Time now,
                      ReportSink* report_to);

  [[nodiscard]] std::uint32_t table_reloads() const noexcept {
    return table_reloads_;
  }
  [[nodiscard]] std::uint32_t full_reloads() const noexcept {
    return full_reloads_;
  }

 private:
  struct TableState {
    std::vector<sim::Time> recent;  // finding timestamps within the window
    sim::Time last_escalation = 0;
    bool escalated_this_window = false;
  };

  void prune(TableState& state, sim::Time now) const;

  db::Database& db_;
  EscalationConfig config_;
  std::vector<TableState> tables_;
  std::vector<sim::Time> recent_table_escalations_;
  sim::Time last_full_reload_ = 0;
  std::uint32_t table_reloads_ = 0;
  std::uint32_t full_reloads_ = 0;
};

/// ReportSink tee: forwards findings to the primary sink and feeds the
/// escalation policy (which may emit additional escalation findings).
class EscalatingSink final : public ReportSink {
 public:
  EscalatingSink(EscalationPolicy& policy, ReportSink* primary,
                 std::function<sim::Time()> clock)
      : policy_(policy), primary_(primary), clock_(std::move(clock)) {}

  void on_finding(const Finding& finding) override {
    if (primary_ != nullptr) {
      primary_->on_finding(finding);
    }
    policy_.on_finding(finding, clock_(), primary_);
  }

 private:
  EscalationPolicy& policy_;
  ReportSink* primary_;
  std::function<sim::Time()> clock_;
};

}  // namespace wtc::audit
