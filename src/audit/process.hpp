// The audit process (Figure 1): a dedicated process hosting the audit
// framework — a main thread that translates IPC into element invocations,
// and pluggable elements implementing triggering, detection, and recovery.
//
// Extensibility contract (§4): a new element declares which message types
// it accepts and is handed matching messages by the main thread; elements
// are independent of one another, so the audit subsystem is customized by
// composing elements.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "audit/engine.hpp"
#include "audit/escalation.hpp"
#include "audit/priority.hpp"
#include "audit/replay.hpp"
#include "audit/report.hpp"
#include "db/api.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "sim/reliable.hpp"

namespace wtc::db {
class RunOpLog;
}

namespace wtc::audit {

class AuditProcess;

/// One pluggable element of the audit framework.
class AuditElement {
 public:
  virtual ~AuditElement() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Invoked when the audit process (re)starts.
  virtual void on_start(AuditProcess& process) { (void)process; }
  /// Message types this element accepts (the registration the paper
  /// describes: an element communicates its accepted message set).
  [[nodiscard]] virtual bool accepts(std::uint32_t type) const {
    (void)type;
    return false;
  }
  virtual void on_message(AuditProcess& process, const sim::Message& message) {
    (void)process;
    (void)message;
  }
};

/// Element quarantine (graceful degradation): an element that throws
/// kQuarantineMaxFaults times within kQuarantineWindow is disabled and
/// reported as a finding; the remaining elements keep running instead of
/// the whole audit process dying with it. Reversible degradation: a
/// quarantined element is re-enabled (fault history cleared, on_start
/// re-run) after a clean kQuarantineWindow.
inline constexpr std::uint32_t kQuarantineMaxFaults = 3;
inline constexpr sim::Duration kQuarantineWindow =
    10 * static_cast<sim::Duration>(sim::kSecond);

/// What one periodic tick audits (§4.3 / §4.4.1): every table, or one
/// table per tick (Table 5: "1 table every 5 seconds") picked round-robin
/// or by priority.
enum class TablePacing : std::uint8_t { AllTables, RoundRobin, Prioritized };

struct AuditProcessConfig {
  EngineConfig engine;
  PriorityWeights weights;

  /// Periodic audit (§4.3): interval of the full pass (Table 2: 10 s).
  sim::Duration period = 10 * static_cast<sim::Duration>(sim::kSecond);
  bool periodic_enabled = true;
  TablePacing pacing = TablePacing::AllTables;

  /// Event-triggered audit (§4.3): check the written record on DB updates.
  bool event_triggered = false;

  /// Low-resource trigger (§4.3's other example event: "when the system
  /// enters a critically low available resource state"): when a dynamic
  /// table's free-record ratio falls below the low-water mark, run the
  /// semantic audit immediately to reclaim leaked ("zombie") records.
  bool low_resource_trigger = false;

  /// Progress indicator (§4.2).
  bool progress_indicator = true;
  sim::Duration progress_timeout = 100 * static_cast<sim::Duration>(sim::kSecond);

  bool heartbeat = true;

  /// Replay audit arm (DESIGN §16): periodically re-executes the
  /// whole-run op log (deduplicated) against a shadow region and reports
  /// any live-region divergence — the semantic-corruption net the
  /// structural arms cannot cast. Requires `replay_log` (a RunOpLog tee
  /// installed on the client's notification chain); recording must have
  /// started at the pristine image.
  bool replay_audit = false;
  const db::RunOpLog* replay_log = nullptr;
  ReplayConfig replay;

  /// Hierarchical recovery escalation (the 5ESS-style strategy the
  /// paper's §2 builds on): repeated findings on a table escalate the
  /// localized repairs to a table reload, then to a full reload.
  bool escalation = false;
  EscalationConfig escalation_config;

  /// Reliable IPC: heartbeat replies are sent through the reliable
  /// delivery layer (ack + retry) instead of fire-and-forget, so a lossy
  /// queue does not masquerade as a dead audit process.
  bool reliable_ipc = false;
  sim::ReliableConfig reliable;
};

class AuditProcess final : public sim::Process {
 public:
  AuditProcess(db::Database& db, sim::Cpu& cpu, AuditProcessConfig config,
               ReportSink* sink, ClientControl* control);

  void on_start() override;
  void on_message(const sim::Message& message) override;

  /// Framework API: registers an element (before or after start).
  void add_element(std::unique_ptr<AuditElement> element);

  /// Runs `fn` on behalf of `element` under the quarantine guard: skipped
  /// if the element is disabled, and a throw counts as an element fault.
  /// Elements route their self-scheduled timer work through this so a
  /// crashing element cannot take the audit process down from a timer.
  void guarded(AuditElement& element, const std::function<void()>& fn);

  /// Sends a reply through the reliable layer when `reliable_ipc` is on,
  /// plain fire-and-forget otherwise.
  void send_reply(sim::ProcessId to, sim::Message message);

  [[nodiscard]] bool element_disabled(std::string_view name) const;
  /// The registered element with this name (nullptr if absent) — result
  /// harvesting; callers downcast to the concrete element type.
  [[nodiscard]] const AuditElement* find_element(std::string_view name) const;
  /// Elements currently quarantined / element faults caught so far.
  [[nodiscard]] std::uint32_t quarantined_count() const noexcept;
  [[nodiscard]] std::uint64_t element_faults() const noexcept { return faults_; }
  /// Cooldown re-enables performed so far.
  [[nodiscard]] std::uint32_t reenabled_count() const noexcept { return reenabled_; }

  [[nodiscard]] AuditEngine& engine() noexcept { return engine_; }
  [[nodiscard]] db::Database& database() noexcept { return db_; }
  [[nodiscard]] sim::Cpu& cpu() noexcept { return cpu_; }
  [[nodiscard]] const AuditProcessConfig& config() const noexcept { return config_; }
  [[nodiscard]] PriorityScheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] ClientControl* client_control() noexcept { return control_; }
  [[nodiscard]] const EscalationPolicy* escalation() const noexcept {
    return escalation_ ? &*escalation_ : nullptr;
  }

  /// Books `cost` of audit CPU work; returns completion time.
  sim::Time book_cpu(sim::Duration cost);

  // --- aggregated statistics ---
  void note_cycle(const CheckResult& result) noexcept {
    ++cycles_;
    total_cost_ += result.cost;
  }
  [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
  [[nodiscard]] sim::Duration total_cost() const noexcept { return total_cost_; }

 private:
  /// One registered element plus its quarantine bookkeeping.
  struct ElementSlot {
    std::unique_ptr<AuditElement> element;
    std::vector<sim::Time> fault_times;  // within the quarantine window
    bool disabled = false;
  };

  void dispatch(const sim::Message& message);
  void note_element_fault(ElementSlot& slot);
  void reenable_element(AuditElement* element);

  db::Database& db_;
  sim::Cpu& cpu_;
  AuditProcessConfig config_;
  std::optional<EscalationPolicy> escalation_;
  std::optional<EscalatingSink> escalating_sink_;
  AuditEngine engine_;
  PriorityScheduler scheduler_;
  ClientControl* control_;
  std::vector<ElementSlot> elements_;
  sim::ReliableReceiver receiver_{*this};
  std::optional<sim::ReliableSender> reply_sender_;
  std::uint64_t cycles_ = 0;
  sim::Duration total_cost_ = 0;
  std::uint64_t faults_ = 0;
  std::uint32_t reenabled_ = 0;
};

// --- standard elements ---

/// Replies to the manager's heartbeat queries (§4.1).
class HeartbeatElement final : public AuditElement {
 public:
  [[nodiscard]] std::string_view name() const override { return "heartbeat"; }
  [[nodiscard]] bool accepts(std::uint32_t type) const override;
  void on_message(AuditProcess& process, const sim::Message& message) override;
};

/// Database deadlock detection via API activity messages (§4.2).
class ProgressIndicatorElement final : public AuditElement {
 public:
  /// A lock held at least this long by a client that made no progress for
  /// a whole timeout is stale: its holder is terminated.
  static constexpr sim::Duration kLockHoldThreshold =
      100 * static_cast<sim::Duration>(sim::kMillisecond);

  [[nodiscard]] std::string_view name() const override { return "progress-indicator"; }
  void on_start(AuditProcess& process) override;
  [[nodiscard]] bool accepts(std::uint32_t type) const override;
  void on_message(AuditProcess& process, const sim::Message& message) override;

 private:
  void check(AuditProcess& process);
  std::uint64_t counter_ = 0;
  std::uint64_t last_seen_ = 0;
};

/// Periodic audit trigger (§4.3 / §4.4.1): every period, audits the
/// tables the config's TablePacing names.
class PeriodicAuditElement final : public AuditElement {
 public:
  [[nodiscard]] std::string_view name() const override { return "periodic-audit"; }
  void on_start(AuditProcess& process) override;

 private:
  void tick(AuditProcess& process);

  /// The cycle's table order, reused from tick to tick.
  std::vector<db::TableId> order_;
};

/// Event-triggered audit (§4.3): targeted check of each updated record.
class EventTriggeredAuditElement final : public AuditElement {
 public:
  [[nodiscard]] std::string_view name() const override { return "event-audit"; }
  [[nodiscard]] bool accepts(std::uint32_t type) const override;
  void on_message(AuditProcess& process, const sim::Message& message) override;

  [[nodiscard]] std::uint64_t triggered() const noexcept { return triggered_; }

 private:
  std::uint64_t triggered_ = 0;
};

/// Low-resource event trigger (§4.3): monitors free-record availability in
/// the dynamic tables and fires an immediate semantic/structural sweep
/// when a table runs critically low — reclaiming leaked records before
/// allocation failures turn into lost calls.
class LowResourceTriggerElement final : public AuditElement {
 public:
  /// Free-record ratio below which a dynamic table is critically low.
  static constexpr double kLowWaterFraction = 0.15;
  /// Scan period of the free-record monitor.
  static constexpr sim::Duration kPeriod = 5 * static_cast<sim::Duration>(sim::kSecond);

  [[nodiscard]] std::string_view name() const override { return "low-resource"; }
  void on_start(AuditProcess& process) override;

 private:
  void scan(AuditProcess& process);
};

/// Replay audit trigger: every kPeriod (20 s), re-executes the recorded
/// op log against a shadow region (deduplicated chains on the worker
/// pool) and reports every shadow/live divergence as a ReplayCheck
/// finding. Cost is booked into the shared CPU under the engine's
/// cycle-budget policy: with a budget set, a tick whose modelled cost
/// exceeds the accumulated per-tick allowance defers to a later tick
/// (counted as audit.cycles_deferred) instead of starving the
/// structural arms.
class ReplayAuditElement final : public AuditElement {
 public:
  [[nodiscard]] std::string_view name() const override { return "replay-audit"; }
  void on_start(AuditProcess& process) override;

  [[nodiscard]] std::uint64_t runs() const noexcept { return runs_; }
  [[nodiscard]] const ReplayStats& last_stats() const noexcept {
    return last_stats_;
  }

 private:
  /// Replay audit period: one deduplicated re-execution of the op log.
  static constexpr sim::Duration kPeriod =
      20 * static_cast<sim::Duration>(sim::kSecond);

  void tick(AuditProcess& process);

  std::optional<ReplayAuditor> auditor_;  ///< built on first tick
  ReplayStats last_stats_;
  std::uint64_t runs_ = 0;
  /// Accumulated cycle-budget allowance (µs) not yet spent on replay.
  sim::Duration allowance_ = 0;
};

/// Adapter: forwards instrumented-API notifications into the audit
/// process's IPC queue (the Figure-1 message queue). Resilient to audit
/// process restarts via the pid provider.
class IpcNotificationSink final : public db::NotificationSink {
 public:
  IpcNotificationSink(sim::Node& node, std::function<sim::ProcessId()> audit_pid)
      : node_(node), audit_pid_(std::move(audit_pid)) {}

  void on_api_event(const db::ApiEvent& event) override;

 private:
  sim::Node& node_;
  std::function<sim::ProcessId()> audit_pid_;
};

/// Reliable variant of IpcNotificationSink: API events are framed through
/// the reliable delivery layer, so a lossy queue loses no audit triggers
/// and a duplicating queue never double-fires the event audit. A small
/// courier process (the sender side of the message-queue library) owns
/// the retry state and consumes acks.
class ReliableIpcSink final : public db::NotificationSink {
 public:
  ReliableIpcSink(sim::Node& node, std::function<sim::ProcessId()> audit_pid,
                  sim::ReliableConfig config = {});

  void on_api_event(const db::ApiEvent& event) override;

 private:
  class Courier;
  std::shared_ptr<Courier> courier_;
};

}  // namespace wtc::audit
