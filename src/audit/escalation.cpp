#include "audit/escalation.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace wtc::audit {

EscalationPolicy::EscalationPolicy(db::Database& db, EscalationConfig config)
    : db_(db), config_(config), tables_(db.table_count()) {}

void EscalationPolicy::prune(TableState& state, sim::Time now) const {
  const sim::Time horizon =
      now > static_cast<sim::Time>(config_.window)
          ? now - static_cast<sim::Time>(config_.window)
          : 0;
  state.recent.erase(
      std::remove_if(state.recent.begin(), state.recent.end(),
                     [horizon](sim::Time t) { return t < horizon; }),
      state.recent.end());
}

Recovery EscalationPolicy::on_finding(const Finding& finding, sim::Time now,
                                      ReportSink* report_to) {
  if (finding.table == db::kNoTable || finding.table >= tables_.size()) {
    return Recovery::None;
  }
  // Escalation findings feed back through the sink; ignore our own.
  if (finding.recovery == Recovery::ReloadAll) {
    return Recovery::None;
  }

  auto& state = tables_[finding.table];
  prune(state, now);
  state.recent.push_back(now);

  const bool in_cooldown =
      state.last_escalation != 0 &&
      now - state.last_escalation < static_cast<sim::Time>(kEscalationCooldown);
  if (state.recent.size() < config_.table_reload_threshold || in_cooldown) {
    return Recovery::None;
  }

  // Level 1: localized repair is not holding — reload the whole table
  // from permanent storage (dropping its dynamic state).
  const auto& tl = db_.layout().table(finding.table);
  db_.reload_span_from_disk(tl.offset, tl.record_size * tl.num_records);
  state.recent.clear();
  state.last_escalation = now;
  ++table_reloads_;
  obs::count(obs::Counter::audit_table_reload_escalations);
  obs::trace_instant("audit.table_reload", "audit",
                     static_cast<std::uint64_t>(now));

  Finding escalation;
  escalation.technique = finding.technique;
  escalation.recovery = Recovery::ReloadSpan;
  escalation.table = finding.table;
  escalation.offset = tl.offset;
  escalation.length = tl.record_size * tl.num_records;
  escalation.time = now;
  escalation.shard = finding.shard;
  if (report_to != nullptr) {
    report_to->on_finding(escalation);
  }

  // Level 2: several tables degenerating inside one window — reload the
  // entire database.
  const sim::Time horizon =
      now > static_cast<sim::Time>(config_.window)
          ? now - static_cast<sim::Time>(config_.window)
          : 0;
  recent_table_escalations_.push_back(now);
  recent_table_escalations_.erase(
      std::remove_if(recent_table_escalations_.begin(),
                     recent_table_escalations_.end(),
                     [horizon](sim::Time t) { return t < horizon; }),
      recent_table_escalations_.end());
  const bool full_cooldown =
      last_full_reload_ != 0 &&
      now - last_full_reload_ < static_cast<sim::Time>(kEscalationCooldown);
  if (recent_table_escalations_.size() >= kFullReloadThreshold &&
      !full_cooldown) {
    db_.reload_all_from_disk();
    recent_table_escalations_.clear();
    last_full_reload_ = now;
    ++full_reloads_;
    obs::count(obs::Counter::audit_full_reload_escalations);
    obs::trace_instant("audit.full_reload", "audit",
                       static_cast<std::uint64_t>(now));

    Finding full;
    full.technique = finding.technique;
    full.recovery = Recovery::ReloadAll;
    full.offset = 0;
    full.length = db_.region().size();
    full.time = now;
    full.shard = finding.shard;
    if (report_to != nullptr) {
      report_to->on_finding(full);
    }
    return Recovery::ReloadAll;
  }
  return Recovery::ReloadSpan;
}

}  // namespace wtc::audit
