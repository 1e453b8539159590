#include "manager/manager.hpp"

#include <algorithm>

#include "audit/messages.hpp"
#include "common/log.hpp"
#include "manager/healer.hpp"
#include "obs/metrics.hpp"

namespace wtc::manager {

namespace {
constexpr sim::Duration kHeartbeatPeriod = 1 * static_cast<sim::Duration>(sim::kSecond);
/// Reply deadline: missing it means the audit process is dead/hung.
constexpr sim::Duration kHeartbeatTimeout =
    3 * static_cast<sim::Duration>(sim::kSecond);

/// Active -> standby peer heartbeat period, and how long the standby
/// waits without one before declaring the active dead and taking over.
constexpr sim::Duration kPeerPeriod =
    500 * static_cast<sim::Duration>(sim::kMillisecond);
constexpr sim::Duration kPeerTimeout =
    2500 * static_cast<sim::Duration>(sim::kMillisecond);
}  // namespace

Manager::Manager(std::function<sim::ProcessId()> spawn_audit,
                 ManagerConfig config, Role role)
    : spawn_audit_(std::move(spawn_audit)), config_(config), role_(role) {}

void Manager::on_start() {
  if (config_.reliable_heartbeat) {
    hb_sender_.emplace(*this, audit::msg::kChannelManagerHeartbeat,
                       [this]() { return audit_pid_; }, config_.reliable);
  }
  if (role_ == Role::Active) {
    become_active();
  } else {
    last_peer_seen_ = now();
    const std::uint64_t gen = ++role_gen_;
    schedule_after(kPeerPeriod, [this, gen]() { watch_peer(gen); });
  }
}

void Manager::become_active() {
  role_ = Role::Active;
  const std::uint64_t gen = ++role_gen_;
  if (audit_pid_ == sim::kNoProcess || !node().alive(audit_pid_)) {
    spawn_audit_now();
  }
  schedule_after(kHeartbeatPeriod,
                 [this, gen]() { heartbeat_tick(gen); });
  schedule_after(kPeerPeriod, [this, gen]() { peer_tick(gen); });
}

void Manager::spawn_audit_now() {
  audit_pid_ = spawn_audit_();
  ++audit_epoch_;
  restart_barrier_ = seq_;
}

void Manager::heartbeat_tick(std::uint64_t gen) {
  if (role_ != Role::Active || gen != role_gen_) {
    return;
  }
  ++seq_;
  ++sent_;
  obs::count(obs::Counter::manager_heartbeats_sent);
  sim::Message query;
  query.from = pid();
  query.type = audit::msg::kHeartbeat;
  query.args = {seq_, audit_epoch_};
  if (hb_sender_) {
    hb_sender_->send(std::move(query));
  } else {
    node().send(audit_pid_, std::move(query));
  }

  const std::uint64_t awaited = seq_;
  schedule_after(kHeartbeatTimeout, [this, gen, awaited]() {
    if (role_ == Role::Active && gen == role_gen_) {
      check_reply(awaited);
    }
  });
  schedule_after(kHeartbeatPeriod,
                 [this, gen]() { heartbeat_tick(gen); });
}

void Manager::check_reply(std::uint64_t seq) {
  if (last_acked_ >= seq || seq <= restart_barrier_) {
    return;  // reply arrived in time, or predates the latest restart
  }
  common::log(common::LogLevel::Info, "manager",
              "audit process missed heartbeat ", seq, "; restarting");
  ++restarts_;
  obs::count(obs::Counter::manager_restarts);
  obs::trace_instant("manager.restart", "manager",
                     static_cast<std::uint64_t>(now()));
  if (node().alive(audit_pid_)) {
    ++restarts_live_;
  }
  node().kill(audit_pid_);
  spawn_audit_now();
}

void Manager::peer_tick(std::uint64_t gen) {
  if (role_ != Role::Active || gen != role_gen_) {
    return;
  }
  if (peer_ != sim::kNoProcess) {
    sim::Message beat;
    beat.from = pid();
    beat.type = audit::msg::kPeerHeartbeat;
    beat.args = {term_, ++peer_seq_, audit_pid_, audit_epoch_};
    node().send(peer_, std::move(beat));
  }
  schedule_after(kPeerPeriod, [this, gen]() { peer_tick(gen); });
}

void Manager::watch_peer(std::uint64_t gen) {
  if (role_ != Role::Standby || gen != role_gen_) {
    return;
  }
  if (now() - last_peer_seen_ >= static_cast<sim::Time>(kPeerTimeout)) {
    // The active manager is dead or partitioned: take over supervision of
    // the audit where it left off (last advertised pid + epoch).
    ++takeovers_;
    ++term_;
    obs::count(obs::Counter::manager_takeovers);
    obs::trace_instant("manager.takeover", "manager",
                       static_cast<std::uint64_t>(now()));
    common::log(common::LogLevel::Info, "manager",
                "standby taking over as active (term ", term_, ")");
    become_active();
    return;
  }
  schedule_after(kPeerPeriod, [this, gen]() { watch_peer(gen); });
}

void Manager::handle_reply(const sim::Message& message) {
  if (message.args.size() < 2 || message.from != audit_pid_ ||
      message.args[1] != audit_epoch_) {
    // Stale incarnation (or malformed): not evidence the CURRENT audit
    // process is alive.
    return;
  }
  last_acked_ = std::max(last_acked_, message.args[0]);
  obs::count(obs::Counter::manager_heartbeat_replies);
}

void Manager::handle_peer_heartbeat(const sim::Message& message) {
  if (message.args.size() < 4) {
    return;
  }
  const std::uint64_t peer_term = message.args[0];
  if (role_ == Role::Active) {
    if (peer_term > term_) {
      // The peer took over while we were partitioned away; its term wins.
      ++demotions_;
      obs::count(obs::Counter::manager_demotions);
      common::log(common::LogLevel::Info, "manager",
                  "demoting to standby (peer term ", peer_term, " > ", term_,
                  ")");
      role_ = Role::Standby;
      term_ = peer_term;
      last_peer_seen_ = now();
      const std::uint64_t gen = ++role_gen_;
      schedule_after(kPeerPeriod, [this, gen]() { watch_peer(gen); });
    }
    return;
  }
  last_peer_seen_ = now();
  term_ = std::max(term_, peer_term);
  audit_pid_ = static_cast<sim::ProcessId>(message.args[2]);
  audit_epoch_ = message.args[3];
}

void Manager::on_message(const sim::Message& message) {
  if (hb_sender_ && hb_sender_->on_message(message)) {
    return;
  }
  sim::Message inner = message;
  if (sim::ReliableReceiver::is_frame(message)) {
    const auto unwrapped = receiver_.accept(message);
    if (!unwrapped) {
      return;
    }
    inner = *unwrapped;
  }
  if (inner.type == audit::msg::kHeartbeatReply) {
    handle_reply(inner);
  } else if (inner.type == audit::msg::kPeerHeartbeat) {
    handle_peer_heartbeat(inner);
  } else if (inner.type == audit::msg::kCfViolation) {
    // Healing is the active manager's job; a standby receiving the report
    // (e.g. mid-takeover) drops it — the detection path re-reports on the
    // next attestation slice if the thread is still wedged.
    if (role_ == Role::Active && healer_ != nullptr) {
      healer_->heal(audit::msg::view_cf_violation(inner));
    }
  }
}

const Manager& ManagerPair::active(const sim::Node& node) const {
  const bool first_alive = node.alive(first_pid);
  const bool second_alive = node.alive(second_pid);
  if (first_alive && first->role() == Role::Active) {
    return *first;
  }
  if (second_alive && second->role() == Role::Active) {
    return *second;
  }
  return first_alive || !second_alive ? *first : *second;
}

ManagerPair spawn_manager_pair(sim::Node& node,
                               std::function<sim::ProcessId()> spawn_audit,
                               ManagerConfig config) {
  ManagerPair pair;
  pair.first = std::make_shared<Manager>(spawn_audit, config, Role::Active);
  pair.second = std::make_shared<Manager>(std::move(spawn_audit), config,
                                          Role::Standby);
  pair.first_pid = node.spawn("manager-a", pair.first);
  pair.second_pid = node.spawn("manager-b", pair.second);
  pair.first->set_peer(pair.second_pid);
  pair.second->set_peer(pair.first_pid);
  return pair;
}

}  // namespace wtc::manager
