#include "audit/process.hpp"

#include <algorithm>

#include "audit/messages.hpp"
#include "common/log.hpp"
#include "db/direct.hpp"
#include "db/run_op_log.hpp"
#include "obs/metrics.hpp"

namespace wtc::audit {

AuditProcess::AuditProcess(db::Database& db, sim::Cpu& cpu,
                           AuditProcessConfig config, ReportSink* sink,
                           ClientControl* control)
    : db_(db),
      cpu_(cpu),
      config_(config),
      engine_(db, config.engine, [this]() { return node().now(); }),
      scheduler_(db, config.weights),
      control_(control) {
  if (config_.escalation) {
    escalation_.emplace(db, config_.escalation_config);
    escalating_sink_.emplace(*escalation_, sink,
                             [this]() { return node().now(); });
    engine_.set_report_sink(&*escalating_sink_);
  } else {
    engine_.set_report_sink(sink);
  }
  engine_.set_client_control(control);

  if (config_.heartbeat) {
    add_element(std::make_unique<HeartbeatElement>());
  }
  if (config_.progress_indicator) {
    add_element(std::make_unique<ProgressIndicatorElement>());
  }
  if (config_.periodic_enabled) {
    add_element(std::make_unique<PeriodicAuditElement>());
  }
  if (config_.event_triggered) {
    add_element(std::make_unique<EventTriggeredAuditElement>());
  }
  if (config_.low_resource_trigger) {
    add_element(std::make_unique<LowResourceTriggerElement>());
  }
  if (config_.replay_audit && config_.replay_log != nullptr) {
    add_element(std::make_unique<ReplayAuditElement>());
  }
  if (config_.reliable_ipc) {
    reply_sender_.emplace(*this, msg::kChannelAuditReply,
                          []() { return sim::kNoProcess; }, config_.reliable);
  }
}

void AuditProcess::add_element(std::unique_ptr<AuditElement> element) {
  elements_.push_back(ElementSlot{std::move(element), {}, false});
}

void AuditProcess::on_start() {
  for (auto& slot : elements_) {
    if (slot.disabled) {
      continue;
    }
    try {
      slot.element->on_start(*this);
    } catch (...) {
      note_element_fault(slot);
    }
  }
}

void AuditProcess::on_message(const sim::Message& message) {
  // Reliable-layer housekeeping first: acks for our own reliable replies,
  // then unwrap (+ack, +dedup) incoming reliable frames.
  if (reply_sender_ && reply_sender_->on_message(message)) {
    return;
  }
  if (sim::ReliableReceiver::is_frame(message)) {
    if (const auto inner = receiver_.accept(message)) {
      dispatch(*inner);
    }
    return;
  }
  dispatch(message);
}

void AuditProcess::dispatch(const sim::Message& message) {
  // The main thread's job (§4): route each message to the elements that
  // registered for its type. A throwing element is an element fault, not
  // a process death — the rest of the audit keeps running.
  for (auto& slot : elements_) {
    if (slot.disabled || !slot.element->accepts(message.type)) {
      continue;
    }
    try {
      slot.element->on_message(*this, message);
    } catch (...) {
      note_element_fault(slot);
    }
  }
}

void AuditProcess::guarded(AuditElement& element, const std::function<void()>& fn) {
  for (auto& slot : elements_) {
    if (slot.element.get() != &element) {
      continue;
    }
    if (slot.disabled) {
      return;
    }
    try {
      fn();
    } catch (...) {
      note_element_fault(slot);
    }
    return;
  }
  fn();  // not a registered element: run unguarded
}

void AuditProcess::note_element_fault(ElementSlot& slot) {
  ++faults_;
  const sim::Time now = node().now();
  const sim::Time horizon =
      now > static_cast<sim::Time>(kQuarantineWindow)
          ? now - static_cast<sim::Time>(kQuarantineWindow)
          : 0;
  auto& times = slot.fault_times;
  times.erase(std::remove_if(times.begin(), times.end(),
                             [horizon](sim::Time t) { return t < horizon; }),
              times.end());
  times.push_back(now);
  common::log(common::LogLevel::Warn, "audit", "element '",
              slot.element->name(), "' faulted (", times.size(),
              " in window)");
  if (times.size() < kQuarantineMaxFaults) {
    return;
  }
  // Graceful degradation: disable the element and report the quarantine
  // as a finding so the operator (and the oracle) see the coverage loss.
  slot.disabled = true;
  common::log(common::LogLevel::Warn, "audit", "element '",
              slot.element->name(), "' quarantined after ", times.size(),
              " faults within window");
  Finding finding;
  finding.technique = Technique::ElementQuarantine;
  finding.recovery = Recovery::DisableElement;
  finding.time = now;
  engine_.report_external(finding);

  // Reversible degradation: after a clean quarantine window (trivially
  // clean — a disabled element cannot fault), put the element back in
  // service with a fresh fault history.
  AuditElement* element = slot.element.get();
  schedule_after(kQuarantineWindow, [this, element]() { reenable_element(element); });
}

void AuditProcess::reenable_element(AuditElement* element) {
  for (auto& slot : elements_) {
    if (slot.element.get() != element) {
      continue;
    }
    if (!slot.disabled) {
      return;
    }
    slot.disabled = false;
    slot.fault_times.clear();
    ++reenabled_;
    obs::count(obs::Counter::audit_element_reenabled);
    common::log(common::LogLevel::Info, "audit", "element '",
                slot.element->name(), "' re-enabled after cooldown");
    Finding finding;
    finding.technique = Technique::ElementQuarantine;
    finding.recovery = Recovery::ReenableElement;
    finding.time = node().now();
    engine_.report_external(finding);
    // Restart the element's self-scheduled work; a throw during restart
    // counts as a fresh element fault.
    try {
      slot.element->on_start(*this);
    } catch (...) {
      note_element_fault(slot);
    }
    return;
  }
}

bool AuditProcess::element_disabled(std::string_view name) const {
  for (const auto& slot : elements_) {
    if (slot.element->name() == name) {
      return slot.disabled;
    }
  }
  return false;
}

const AuditElement* AuditProcess::find_element(std::string_view name) const {
  for (const auto& slot : elements_) {
    if (slot.element->name() == name) {
      return slot.element.get();
    }
  }
  return nullptr;
}

std::uint32_t AuditProcess::quarantined_count() const noexcept {
  std::uint32_t count = 0;
  for (const auto& slot : elements_) {
    count += slot.disabled ? 1u : 0u;
  }
  return count;
}

void AuditProcess::send_reply(sim::ProcessId to, sim::Message message) {
  if (reply_sender_) {
    reply_sender_->send_to(to, std::move(message));
  } else {
    node().send(to, std::move(message));
  }
}

sim::Time AuditProcess::book_cpu(sim::Duration cost) {
  return cpu_.book(node().now(), cost);
}

// --- HeartbeatElement ---

bool HeartbeatElement::accepts(std::uint32_t type) const {
  return type == msg::kHeartbeat;
}

void HeartbeatElement::on_message(AuditProcess& process,
                                  const sim::Message& message) {
  sim::Message reply;
  reply.from = process.pid();
  reply.type = msg::kHeartbeatReply;
  reply.args = message.args;  // echoes {sequence, audit epoch}
  process.send_reply(message.from, std::move(reply));
}

// --- ProgressIndicatorElement ---

bool ProgressIndicatorElement::accepts(std::uint32_t type) const {
  return type == msg::kApiActivity;
}

void ProgressIndicatorElement::on_message(AuditProcess&, const sim::Message&) {
  ++counter_;  // any API activity indicates database progress
}

void ProgressIndicatorElement::on_start(AuditProcess& process) {
  last_seen_ = counter_;
  process.schedule_after(process.config().progress_timeout, [this, &process]() {
    process.guarded(*this, [this, &process]() { check(process); });
  });
}

void ProgressIndicatorElement::check(AuditProcess& process) {
  if (counter_ == last_seen_) {
    // No database activity for a whole timeout period: look for a client
    // wedging the database with a stale lock and terminate it (§4.2).
    const sim::Time now = process.node().now();
    for (const auto& [table, lock] : process.database().held_locks()) {
      if (now - lock.since < static_cast<sim::Time>(kLockHoldThreshold)) {
        continue;
      }
      common::log(common::LogLevel::Info, "audit",
                  "progress indicator: terminating client ", lock.owner,
                  " holding table ", table);
      Finding finding;
      finding.technique = Technique::ProgressIndicator;
      finding.recovery = Recovery::KillClientProcess;
      finding.table = table;
      process.engine().report_external(finding);
      if (auto* control = process.client_control()) {
        control->kill_client_process(lock.owner);
      } else {
        process.node().kill(lock.owner);
      }
      process.database().release_locks_of(lock.owner);
    }
  }
  last_seen_ = counter_;
  process.schedule_after(process.config().progress_timeout, [this, &process]() {
    process.guarded(*this, [this, &process]() { check(process); });
  });
}

// --- PeriodicAuditElement ---

void PeriodicAuditElement::on_start(AuditProcess& process) {
  process.schedule_after(process.config().period, [this, &process]() {
    process.guarded(*this, [this, &process]() { tick(process); });
  });
}

void PeriodicAuditElement::tick(AuditProcess& process) {
  auto& db = process.database();
  auto& engine = process.engine();
  process.scheduler().begin_cycle(db);

  CheckResult result;
  const TablePacing pacing = process.config().pacing;
  if (pacing != TablePacing::AllTables) {
    const db::TableId t = pacing == TablePacing::Prioritized
                              ? process.scheduler().next_prioritized()
                              : process.scheduler().next_round_robin();
    result += engine.check_structure(t);
    result += engine.check_ranges(t);
    if (process.config().engine.selective_monitoring) {
      result += engine.check_selective(t);
    }
  } else {
    std::vector<db::TableId>& order = order_;
    order.clear();
    if (process.config().engine.cycle_budget > 0) {
      // A budgeted cycle may not reach every table before the allowance
      // runs out, so rank by audit pressure: tables with the most
      // unverified writes (dirty chunks) and the hottest recent error
      // history go first. The engine's carry queue guarantees whatever
      // the budget cuts off still runs in a later cycle.
      std::vector<std::uint64_t> dirty(db.table_count(), 0);
      for (std::size_t t = 0; t < dirty.size(); ++t) {
        dirty[t] = engine.table_dirty_chunks(static_cast<db::TableId>(t));
      }
      order = process.scheduler().ranked_by_pressure(dirty);
    } else {
      for (std::size_t t = 0; t < db.table_count(); ++t) {
        order.push_back(static_cast<db::TableId>(t));
      }
    }
    result = process.config().engine.incremental ? engine.incremental_pass(order)
                                                 : engine.full_pass(order);
  }

  process.book_cpu(result.cost);
  process.note_cycle(result);
  process.schedule_after(process.config().period, [this, &process]() {
    process.guarded(*this, [this, &process]() { tick(process); });
  });
}

// --- EventTriggeredAuditElement ---

bool EventTriggeredAuditElement::accepts(std::uint32_t type) const {
  return type == msg::kApiActivity;
}

void EventTriggeredAuditElement::on_message(AuditProcess& process,
                                            const sim::Message& message) {
  const auto activity = msg::view_activity(message);
  if (!activity.is_update) {
    return;
  }
  ++triggered_;
  const CheckResult result =
      process.engine().check_record(activity.table, activity.record);
  process.book_cpu(result.cost);
}

// --- LowResourceTriggerElement ---

void LowResourceTriggerElement::on_start(AuditProcess& process) {
  process.schedule_after(kPeriod, [this, &process]() {
    process.guarded(*this, [this, &process]() { scan(process); });
  });
}

void LowResourceTriggerElement::scan(AuditProcess& process) {
  auto& db = process.database();
  bool critical = false;
  for (db::TableId t = 0; t < db.table_count(); ++t) {
    const auto& spec = db.schema().tables[t];
    if (!spec.dynamic) {
      continue;
    }
    std::uint32_t free_records = 0;
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      if (db::direct::read_header(db, t, r).status == db::kStatusFree) {
        ++free_records;
      }
    }
    const double ratio = static_cast<double>(free_records) /
                         static_cast<double>(spec.num_records);
    if (ratio < kLowWaterFraction) {
      critical = true;
    }
  }
  if (critical) {
    // Critically low availability: reclaim leaked records NOW instead of
    // waiting for the next periodic cycle.
    CheckResult result = process.engine().check_semantics();
    for (db::TableId t = 0; t < db.table_count(); ++t) {
      result += process.engine().check_structure(t);
    }
    process.book_cpu(result.cost);
  }
  process.schedule_after(kPeriod, [this, &process]() {
    process.guarded(*this, [this, &process]() { scan(process); });
  });
}

// --- ReplayAuditElement ---

void ReplayAuditElement::on_start(AuditProcess& process) {
  process.schedule_after(kPeriod, [this, &process]() {
    process.guarded(*this, [this, &process]() { tick(process); });
  });
}

void ReplayAuditElement::tick(AuditProcess& process) {
  const db::RunOpLog* log = process.config().replay_log;
  if (log != nullptr) {
    if (!auditor_) {
      auditor_.emplace(process.database(), process.config().replay);
    }
    // Budget policy: each tick earns one cycle's allowance; a replay
    // whose modelled cost (conservatively, every logged op — dedup
    // savings are unknown until the chains are hashed) exceeds what has
    // accumulated is deferred, so replay can never starve the structural
    // arms of a bounded cycle. A zero budget means "always run".
    const sim::Duration budget = process.config().engine.cycle_budget;
    const sim::Duration estimate = static_cast<sim::Duration>(
        static_cast<double>(log->recorded()) *
        static_cast<double>(kReplayCostPerOp) * kReplayCostScale);
    bool run = true;
    if (budget > 0) {
      allowance_ += budget;
      if (allowance_ < estimate) {
        run = false;
        obs::count(obs::Counter::audit_cycles_deferred);
      }
    }
    if (run) {
      const ReplayResult result = auditor_->run(log->events());
      last_stats_ = result.stats;
      ++runs_;
      if (budget > 0) {
        allowance_ -= std::min(allowance_, result.stats.dedup_cost);
      }
      for (const Finding& finding : result.findings) {
        process.engine().report_external(finding);
      }
      CheckResult booked;
      booked.findings = static_cast<std::uint32_t>(result.findings.size());
      booked.cost = result.stats.dedup_cost;
      process.book_cpu(booked.cost);
      process.note_cycle(booked);
    }
  }
  process.schedule_after(kPeriod, [this, &process]() {
    process.guarded(*this, [this, &process]() { tick(process); });
  });
}

// --- IpcNotificationSink ---

void IpcNotificationSink::on_api_event(const db::ApiEvent& event) {
  const sim::ProcessId audit = audit_pid_();
  if (audit != sim::kNoProcess) {
    node_.send(audit, msg::make_activity(event));
  }
}

// --- ReliableIpcSink ---

/// The sender side of the reliable queue: a process so retry timers have
/// an owner and acks have an addressee.
class ReliableIpcSink::Courier final : public sim::Process {
 public:
  Courier(std::function<sim::ProcessId()> audit_pid, sim::ReliableConfig config)
      : audit_pid_(std::move(audit_pid)),
        sender_(*this, msg::kChannelApiEvents,
                [this]() { return audit_pid_(); }, config) {}

  void on_message(const sim::Message& message) override {
    sender_.on_message(message);
  }

  void forward(sim::Message message) { sender_.send(std::move(message)); }

 private:
  std::function<sim::ProcessId()> audit_pid_;
  sim::ReliableSender sender_;
};

ReliableIpcSink::ReliableIpcSink(sim::Node& node,
                                 std::function<sim::ProcessId()> audit_pid,
                                 sim::ReliableConfig config)
    : courier_(std::make_shared<Courier>(std::move(audit_pid), config)) {
  node.spawn("ipc-courier", courier_);
}

void ReliableIpcSink::on_api_event(const db::ApiEvent& event) {
  courier_->forward(msg::make_activity(event));
}

}  // namespace wtc::audit
