#include "experiments/controller_stack.hpp"

#include "db/controller_schema.hpp"

namespace wtc::experiments {

ControllerStack::ControllerStack(std::unique_ptr<db::Database> database,
                                 std::uint64_t seed)
    : node_(scheduler_),
      rng_(seed),
      database_(std::move(database)),
      oracle_(*database_, [this]() { return scheduler_.now(); }) {
  database_->set_observer(&oracle_);
}

callproc::ClientDirectory& ControllerStack::add_client_directory() {
  return directory_.emplace(node_, *database_);
}

sim::ProcessId ControllerStack::spawn_audit() {
  if (died_at_) {
    downtime_ += scheduler_.now() - *died_at_;
    died_at_.reset();
  }
  auto process = std::make_shared<audit::AuditProcess>(
      *database_, cpu_, audit_config_, &oracle_,
      directory_ ? &*directory_ : nullptr);
  audit_pid_ = node_.spawn("audit", process);
  return audit_pid_;
}

manager::ManagerConfig ControllerStack::manager_config() const {
  return {.reliable_heartbeat = audit_config_.reliable_ipc,
          .reliable = audit_config_.reliable};
}

void ControllerStack::deploy_audit(audit::AuditProcessConfig config,
                                   Supervision supervision) {
  audit_config_ = std::move(config);
  switch (supervision) {
    case Supervision::None:
      spawn_audit();
      break;
    case Supervision::Manager:
      manager_ = std::make_shared<manager::Manager>([this]() { return spawn_audit(); },
                                                    manager_config());
      node_.spawn("manager", manager_);
      break;
    case Supervision::ManagerPair:
      pair_.emplace(manager::spawn_manager_pair(
          node_, [this]() { return spawn_audit(); }, manager_config()));
      break;
  }
  const auto target = [this]() { return audit_pid_; };
  if (audit_config_.reliable_ipc) {
    audit_sink_ = std::make_unique<audit::ReliableIpcSink>(node_, target,
                                                           audit_config_.reliable);
  } else {
    audit_sink_ = std::make_unique<audit::IpcNotificationSink>(node_, target);
  }
  run_log_.set_next(audit_sink_.get());
}

manager::ManagerPair& ControllerStack::adopt_audit_with_pair() {
  return pair_.emplace(manager::spawn_manager_pair(
      node_, [this]() { return audit_pid_; }, manager_config()));
}

std::shared_ptr<audit::AuditProcess> ControllerStack::audit() const {
  return std::static_pointer_cast<audit::AuditProcess>(node_.find(audit_pid_));
}

std::shared_ptr<callproc::NativeCallClient> ControllerStack::spawn_native_client(
    db::NotificationSink* sink) {
  auto client = std::make_shared<callproc::NativeCallClient>(
      *database_, db::resolve_controller_ids(database_->schema()), cpu_,
      rng_.fork(1), sink);
  spawn_client(client);
  return client;
}

void ControllerStack::spawn_db_injector(const inject::DbInjectorConfig& config) {
  node_.spawn("injector", std::make_shared<inject::DbErrorInjector>(
                              *database_, oracle_, rng_.fork(2), config));
}

void ControllerStack::kill_audit_every(sim::Duration period) {
  if (period <= 0) {
    return;
  }
  scheduler_.schedule_after(static_cast<sim::Time>(period), [this, period]() {
    if (node_.alive(audit_pid_)) {
      node_.kill(audit_pid_);
      died_at_ = scheduler_.now();
    }
    kill_audit_every(period);
  });
}

sim::Time ControllerStack::audit_downtime() const {
  return downtime_ + (died_at_ ? scheduler_.now() - *died_at_ : 0);
}

}  // namespace wtc::experiments
