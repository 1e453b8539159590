// The Figure-1 controller stack, built once for every runner, ablation and
// example: the sim kernel (scheduler, node, CPU, seeded RNG), the database
// with the corruption oracle as its observer, the client directory, the
// audit process under its supervision, the IPC sink that feeds it API
// events, and the audit-kill saboteur.
//
// Callers run the steps in their own order, and the order is load-bearing:
// same-time events run FIFO by EventId and pids follow spawn order. So each
// step spawns at most one thing (a manager pair: two), and the native-client
// and injector steps draw from fixed RNG streams (1 and 2).
//
// Not built here: `ShardedController` (borrowed database, no oracle,
// client or injector) and the harnesses that drive only the sim kernel and
// a VM driver.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "audit/process.hpp"
#include "callproc/control.hpp"
#include "callproc/native_client.hpp"
#include "common/rng.hpp"
#include "db/run_op_log.hpp"
#include "inject/db_injector.hpp"
#include "inject/oracle.hpp"
#include "manager/manager.hpp"
#include "sim/cpu.hpp"
#include "sim/scheduler.hpp"

namespace wtc::experiments {

/// Who restarts the audit process when it dies (§4.1): nobody (the first
/// crash is permanent), one heartbeat manager, or the duplicated
/// active/standby pair.
enum class Supervision : std::uint8_t { None, Manager, ManagerPair };

class ControllerStack {
 public:
  /// Installs the oracle as `database`'s observer; earlier writes to
  /// `database` are not observed.
  ControllerStack(std::unique_ptr<db::Database> database, std::uint64_t seed);
  ControllerStack(const ControllerStack&) = delete;
  ControllerStack& operator=(const ControllerStack&) = delete;

  [[nodiscard]] sim::Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] sim::Node& node() noexcept { return node_; }
  [[nodiscard]] sim::Cpu& cpu() noexcept { return cpu_; }
  [[nodiscard]] const common::Rng& rng() const noexcept { return rng_; }
  [[nodiscard]] db::Database& db() noexcept { return *database_; }
  [[nodiscard]] inject::CorruptionOracle& oracle() noexcept { return oracle_; }

  /// Gives the audit process client control: a directory that registers
  /// every client spawned later. Call before deploy_audit.
  callproc::ClientDirectory& add_client_directory();

  /// The whole-run op-log tee, whose next hop is the audit sink once
  /// deploy_audit made one. A client reporting to it records the run.
  [[nodiscard]] db::RunOpLog& run_log() noexcept { return run_log_; }

  /// Spawns the audit process (under `supervision`: the manager's start
  /// event spawns it), then the sink that forwards API events to it: a
  /// ReliableIpcSink when `config.reliable_ipc`, else a plain one. The
  /// managers' heartbeat is reliable exactly when the audit's replies are.
  void deploy_audit(audit::AuditProcessConfig config, Supervision supervision);
  /// Spawns a manager pair whose factory hands back the audit process
  /// deploy_audit already started instead of spawning a fresh one.
  manager::ManagerPair& adopt_audit_with_pair();

  /// nullptr until deploy_audit.
  [[nodiscard]] db::NotificationSink* audit_sink() const noexcept {
    return audit_sink_.get();
  }
  /// The live audit process, or nullptr.
  [[nodiscard]] std::shared_ptr<audit::AuditProcess> audit() const;
  [[nodiscard]] manager::ManagerPair* manager_pair() noexcept {
    return pair_ ? &*pair_ : nullptr;
  }
  /// Audit restarts by the manager(s), those of a still-live audit, and
  /// standby takeovers; all 0 when unsupervised.
  [[nodiscard]] std::uint32_t restarts() const {
    return manager_ ? manager_->restarts() : pair_ ? pair_->restarts() : 0;
  }
  [[nodiscard]] std::uint32_t restarts_live() const {
    return manager_ ? manager_->restarts_live() : pair_ ? pair_->restarts_live() : 0;
  }
  [[nodiscard]] std::uint32_t takeovers() const {
    return manager_ ? manager_->takeovers() : pair_ ? pair_->takeovers() : 0;
  }

  /// Spawns `client` as "client" and registers it with the directory.
  template <class Client>
  sim::ProcessId spawn_client(const std::shared_ptr<Client>& client) {
    const sim::ProcessId pid = node_.spawn("client", client);
    if (directory_) {
      directory_->register_client(pid, client.get());
    }
    return pid;
  }
  /// The native call-processing client, on RNG stream 1.
  std::shared_ptr<callproc::NativeCallClient> spawn_native_client(
      db::NotificationSink* sink);
  /// The database bit-flip injector, on RNG stream 2.
  void spawn_db_injector(const inject::DbInjectorConfig& config);

  /// The saboteur: kills the audit process every `period` (0 = never).
  void kill_audit_every(sim::Duration period);
  /// Time so far with the saboteur's victim dead and not yet respawned.
  [[nodiscard]] sim::Time audit_downtime() const;

 private:
  sim::ProcessId spawn_audit();
  [[nodiscard]] manager::ManagerConfig manager_config() const;

  sim::Scheduler scheduler_;
  sim::Node node_;
  sim::Cpu cpu_;
  common::Rng rng_;
  std::unique_ptr<db::Database> database_;
  inject::CorruptionOracle oracle_;
  std::optional<callproc::ClientDirectory> directory_;
  db::RunOpLog run_log_;

  audit::AuditProcessConfig audit_config_;
  sim::ProcessId audit_pid_ = sim::kNoProcess;
  std::unique_ptr<db::NotificationSink> audit_sink_;
  std::shared_ptr<manager::Manager> manager_;
  std::optional<manager::ManagerPair> pair_;
  std::optional<sim::Time> died_at_;
  sim::Time downtime_ = 0;
};

}  // namespace wtc::experiments
