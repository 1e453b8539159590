#include "callproc/vm_driver.hpp"

#include <algorithm>

namespace wtc::callproc {

VmClientDriver::VmClientDriver(vm::Program program, db::Database& db,
                               sim::Cpu& cpu, common::Rng rng,
                               VmDriverConfig config, db::NotificationSink* sink,
                               vm::ExecMonitor* monitor)
    : db_(db),
      cpu_(cpu),
      config_(config),
      api_(db, [this]() { return this->now(); }),
      monitor_(monitor) {
  api_.set_audit_hooks(sink);
  vmp_ = std::make_unique<vm::VmProcess>(std::move(program), api_, rng, config.vm);
  vmp_->set_monitor(monitor_);
}

void VmClientDriver::on_start() {
  api_.init(pid());
  for (std::uint32_t t = 0; t < config_.threads; ++t) {
    vmp_->spawn_thread(vmp_->pristine().entry);
  }
  heal_pending_.assign(vmp_->thread_count(), false);
  schedule_after(0, [this]() { pump(); });
}

void VmClientDriver::on_stopped() {
  // Process killed (progress-indicator recovery, heal escalation, or
  // harness): all threads die with it; held locks are the killer's
  // problem, as in a real crash. Parked threads die too — they are no
  // longer awaiting a heal.
  for (std::uint32_t t = 0; t < vmp_->thread_count(); ++t) {
    vmp_->terminate_thread(t);
  }
  heal_pending_.assign(heal_pending_.size(), false);
  finished_ = true;
}

bool VmClientDriver::all_terminal() const {
  for (std::uint32_t t = 0; t < vmp_->thread_count(); ++t) {
    const auto state = vmp_->thread(t).state();
    if (state == vm::ThreadState::Runnable || state == vm::ThreadState::Sleeping) {
      return false;
    }
    // A heal-pending thread is parked, not done: the manager's healer will
    // restart it.
    if (t < heal_pending_.size() && heal_pending_[t]) {
      return false;
    }
  }
  return true;
}

void VmClientDriver::crash(vm::Trap trap) {
  crashed_ = true;
  crash_trap_ = trap;
  if (!crash_time_) {
    crash_time_ = now();
  }
  finished_ = true;
  for (std::uint32_t t = 0; t < vmp_->thread_count(); ++t) {
    vmp_->terminate_thread(t);
  }
  // A crashing process does NOT release its database locks — that is
  // exactly the wedge the progress-indicator element recovers (§4.2).
}

void VmClientDriver::pump() {
  if (crashed_ || finished_) {
    return;
  }
  const sim::Time now_time = now();

  // Round-robin: find the next runnable (or wakeable) thread.
  std::optional<std::uint32_t> pick;
  sim::Time earliest_wake = UINT64_MAX;
  const auto n = static_cast<std::uint32_t>(vmp_->thread_count());
  for (std::uint32_t k = 0; k < n; ++k) {
    const std::uint32_t t = (cursor_ + k) % n;
    const auto& thread = vmp_->thread(t);
    if (thread.state() == vm::ThreadState::Runnable) {
      pick = t;
      break;
    }
    if (thread.state() == vm::ThreadState::Sleeping) {
      if (thread.wake_time() <= now_time) {
        pick = t;
        break;
      }
      earliest_wake = std::min(earliest_wake, thread.wake_time());
    }
  }

  if (!pick) {
    if (all_terminal()) {
      finished_ = true;
      return;
    }
    if (earliest_wake == UINT64_MAX) {
      // Nothing to run and nothing sleeping: the only live threads are
      // heal-pending. heal_restart_thread re-arms the pump.
      return;
    }
    // Everyone is sleeping: resume at the earliest wake-up.
    schedule_after(static_cast<sim::Duration>(earliest_wake - now_time),
                   [this]() { pump(); });
    return;
  }

  const std::uint32_t t = *pick;
  cursor_ = (t + 1) % n;
  api_.set_thread_id(t);
  const auto result = vmp_->run_quantum(t, now_time);

  auto& thread = vmp_->thread(t);
  if (thread.state() == vm::ThreadState::Trapped) {
    if (thread.trap() == vm::Trap::PecosViolation) {
      // The PECOS signal handler confirms the fault came from an Assertion
      // Block and gracefully terminates only this thread of execution.
      ++pecos_detections_;
      if (!first_pecos_time_) {
        first_pecos_time_ = now();
      }
      if (violation_handler_) {
        // Healing mode: park the thread and route the violation to the
        // active manager; its healer terminates, repairs, and restarts.
        if (t < heal_pending_.size()) {
          heal_pending_[t] = true;
        }
        audit::CfViolation violation;
        violation.client = pid();
        violation.thread = t;
        violation.from_pc = thread.pc();
        violation.to_pc = 0;  // trapped pre-transfer; no landing happened
        violation.time = now();
        violation.source = audit::CfSource::Preemptive;
        violation_handler_(violation);
      } else {
        vmp_->terminate_thread(t);
      }
    } else {
      crash(thread.trap());
      return;
    }
  } else if (thread.instructions_retired() > kMaxInstructionsPerThread &&
             (thread.state() == vm::ThreadState::Runnable ||
              thread.state() == vm::ThreadState::Sleeping)) {
    // Livelock: the thread is spinning without reaching completion.
    ++hung_threads_;
    if (!first_hang_time_) {
      first_hang_time_ = now();
    }
    vmp_->terminate_thread(t);
  }

  if (all_terminal()) {
    finished_ = true;
    return;
  }
  const sim::Time done_at = cpu_.book(now_time, std::max<sim::Duration>(
                                                    result.time_cost, 1));
  schedule_after(static_cast<sim::Duration>(done_at - now_time),
                 [this]() { pump(); });
}

void VmClientDriver::control_terminate_thread(std::uint32_t thread_id) {
  if (thread_id < vmp_->thread_count()) {
    ++terminated_by_audit_;
    vmp_->terminate_thread(thread_id);
  }
}

void VmClientDriver::heal_terminate_thread(std::uint32_t thread_id) {
  if (thread_id < vmp_->thread_count()) {
    vmp_->terminate_thread(thread_id);
  }
}

void VmClientDriver::heal_restart_thread(std::uint32_t thread_id) {
  if (crashed_ || thread_id >= vmp_->thread_count()) {
    return;  // the process died in the meantime; nothing to restart
  }
  if (thread_id < heal_pending_.size()) {
    heal_pending_[thread_id] = false;
  }
  // Pristine text + disarmed fetch redirect guarantee the restarted thread
  // cannot re-trip over the same corruption.
  vmp_->restore_text_from_pristine();
  vmp_->reset_thread(thread_id, vmp_->pristine().entry);
  finished_ = false;
  schedule_after(0, [this]() { pump(); });
}

std::uint32_t VmClientDriver::heal_pending_count() const noexcept {
  std::uint32_t n = 0;
  for (const bool pending : heal_pending_) {
    n += pending ? 1u : 0u;
  }
  return n;
}

}  // namespace wtc::callproc
