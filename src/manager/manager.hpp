// The manager process (Figure 1) — duplicated.
//
// The paper places a *duplicated* manager above the environment: it
// starts the audit process and monitors it with the §4.1 heartbeat
// protocol (a periodic query the audit's heartbeat element answers;
// missing the reply deadline means the audit crashed, hung, or was
// starved, and the manager restarts it). Duplication makes the monitor
// itself survivable: an active/standby pair exchanges peer heartbeats,
// and when the active dies (or is partitioned — its peer heartbeats stop
// arriving) the standby takes over audit supervision where the active
// left off.
//
// Robustness details:
//   * Heartbeats are tagged with the audit's spawn epoch; a reply from a
//     previous audit incarnation, still in flight across a restart, is
//     never counted as liveness for the new one.
//   * With `reliable_heartbeat` the query/reply exchange runs over the
//     reliable delivery layer (sim/reliable.hpp), so a lossy queue does
//     not trigger spurious restarts.
//   * Takeovers carry a monotonically increasing term; an active manager
//     that sees a peer heartbeat with a higher term demotes itself, so a
//     healed partition converges back to one active.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "sim/node.hpp"
#include "sim/reliable.hpp"
#include "sim/time.hpp"

namespace wtc::manager {

class CfHealer;

enum class Role : std::uint8_t { Active, Standby };

struct ManagerConfig {
  /// Run the audit heartbeat over the reliable delivery layer.
  bool reliable_heartbeat = false;
  sim::ReliableConfig reliable;
};

class Manager final : public sim::Process {
 public:
  /// `spawn_audit` creates (or re-creates) the audit process and returns
  /// its pid; the manager owns when it is called.
  Manager(std::function<sim::ProcessId()> spawn_audit, ManagerConfig config = {},
          Role role = Role::Active);

  /// Wires the duplicated peer (normally via spawn_manager_pair).
  void set_peer(sim::ProcessId peer) noexcept { peer_ = peer; }

  /// Wires the CF healer; kCfViolation messages are honored by whichever
  /// manager is *active* when they arrive (both members of the pair share
  /// one healer, like they share the spawn_audit factory).
  void set_healer(CfHealer* healer) noexcept { healer_ = healer; }

  void on_start() override;
  void on_message(const sim::Message& message) override;

  [[nodiscard]] Role role() const noexcept { return role_; }
  [[nodiscard]] std::uint64_t term() const noexcept { return term_; }
  [[nodiscard]] sim::ProcessId audit_pid() const noexcept { return audit_pid_; }
  /// Spawn-epoch of the supervised audit (tags heartbeats; see above).
  [[nodiscard]] std::uint64_t audit_epoch() const noexcept { return audit_epoch_; }
  [[nodiscard]] std::uint32_t restarts() const noexcept { return restarts_; }
  /// Restarts where the audit process was still alive when killed — real
  /// for a hung audit, spurious when a lossy channel ate the heartbeat.
  [[nodiscard]] std::uint32_t restarts_live() const noexcept {
    return restarts_live_;
  }
  [[nodiscard]] std::uint32_t takeovers() const noexcept { return takeovers_; }
  [[nodiscard]] std::uint32_t demotions() const noexcept { return demotions_; }
  [[nodiscard]] std::uint64_t heartbeats_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t last_acked() const noexcept { return last_acked_; }

 private:
  void become_active();
  void spawn_audit_now();
  void heartbeat_tick(std::uint64_t gen);
  void check_reply(std::uint64_t seq);
  void peer_tick(std::uint64_t gen);
  void watch_peer(std::uint64_t gen);
  void handle_reply(const sim::Message& message);
  void handle_peer_heartbeat(const sim::Message& message);

  std::function<sim::ProcessId()> spawn_audit_;
  ManagerConfig config_;
  Role role_;
  /// Bumped on every role change; stale loops of the old role see a
  /// mismatch and stop rescheduling themselves.
  std::uint64_t role_gen_ = 0;
  std::uint64_t term_ = 0;
  sim::ProcessId peer_ = sim::kNoProcess;
  sim::Time last_peer_seen_ = 0;

  sim::ProcessId audit_pid_ = sim::kNoProcess;
  std::uint64_t audit_epoch_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t last_acked_ = 0;
  /// Heartbeats sent before the latest restart; their timeouts must not
  /// trigger a second restart of the fresh audit.
  std::uint64_t restart_barrier_ = 0;
  std::uint64_t peer_seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint32_t restarts_ = 0;
  std::uint32_t restarts_live_ = 0;
  std::uint32_t takeovers_ = 0;
  std::uint32_t demotions_ = 0;
  CfHealer* healer_ = nullptr;

  std::optional<sim::ReliableSender> hb_sender_;
  sim::ReliableReceiver receiver_{*this};
};

/// The duplicated manager as deployed: one active, one standby, wired to
/// each other. Both share the `spawn_audit` factory.
struct ManagerPair {
  std::shared_ptr<Manager> first;   ///< starts as the active
  std::shared_ptr<Manager> second;  ///< starts as the standby
  sim::ProcessId first_pid = sim::kNoProcess;
  sim::ProcessId second_pid = sim::kNoProcess;

  /// The manager currently in charge (prefers a live Active role-holder).
  [[nodiscard]] const Manager& active(const sim::Node& node) const;
  [[nodiscard]] std::uint32_t restarts() const {
    return first->restarts() + second->restarts();
  }
  [[nodiscard]] std::uint32_t restarts_live() const {
    return first->restarts_live() + second->restarts_live();
  }
  [[nodiscard]] std::uint32_t takeovers() const {
    return first->takeovers() + second->takeovers();
  }
};

[[nodiscard]] ManagerPair spawn_manager_pair(
    sim::Node& node, std::function<sim::ProcessId()> spawn_audit,
    ManagerConfig config = {});

}  // namespace wtc::manager
