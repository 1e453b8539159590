// Drives the MiniVM client process inside the simulation (§6.1.2's
// experimental client).
//
// Schedules the client's threads in round-robin quanta, charges their CPU
// time (instructions + DB operations) on the shared Cpu, and implements
// the trap policy:
//   * Trap::PecosViolation -> the PECOS signal handler terminates only the
//     offending thread (graceful recovery, §6.1);
//   * any other trap       -> OS-level detection: the whole client process
//     crashes ("system detection", losing all calls in progress);
//   * a thread exceeding its instruction budget is livelocked (client
//     hang) — it is stopped and flagged so the harness classifies the run.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "audit/report.hpp"
#include "callproc/control.hpp"
#include "common/rng.hpp"
#include "db/api.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "vm/interp.hpp"

namespace wtc::callproc {

struct VmDriverConfig {
  std::uint32_t threads = 16;
  vm::VmConfig vm{.quantum = 80, .instr_cost = 1, .max_call_depth = 64};
};

class VmClientDriver final : public sim::Process,
                             public ControllableClient,
                             public audit::HealableClient {
 public:
  /// Livelock bound: a thread burning this many instructions without
  /// completing is hung (deadlock/livelock per Table 7's Client Hang).
  static constexpr std::uint64_t kMaxInstructionsPerThread = 50'000;

  VmClientDriver(vm::Program program, db::Database& db, sim::Cpu& cpu,
                 common::Rng rng, VmDriverConfig config,
                 db::NotificationSink* sink, vm::ExecMonitor* monitor);

  void on_start() override;
  void on_stopped() override;

  /// Semantic-audit recovery: terminate one client thread.
  void control_terminate_thread(std::uint32_t thread_id) override;

  /// Healing (ACFA mode): when set, a preemptive PECOS detection does NOT
  /// terminate the thread — it is parked heal-pending and the violation is
  /// routed to the handler (which forwards it to the active manager). The
  /// manager's healer then drives the HealableClient hooks below.
  void set_violation_handler(
      std::function<void(const audit::CfViolation&)> handler) {
    violation_handler_ = std::move(handler);
  }

  // --- audit::HealableClient ---
  void heal_terminate_thread(std::uint32_t thread_id) override;
  void heal_restart_thread(std::uint32_t thread_id) override;

  /// Threads currently parked awaiting a heal (nonzero at end-of-run means
  /// a detected violation was never healed).
  [[nodiscard]] std::uint32_t heal_pending_count() const noexcept;

  [[nodiscard]] vm::VmProcess& vmp() noexcept { return *vmp_; }
  [[nodiscard]] const vm::VmProcess& vmp() const noexcept { return *vmp_; }
  [[nodiscard]] db::DbApi& api() noexcept { return api_; }

  [[nodiscard]] bool crashed() const noexcept { return crashed_; }
  [[nodiscard]] std::optional<vm::Trap> crash_trap() const noexcept {
    return crash_trap_;
  }
  [[nodiscard]] std::uint32_t pecos_detections() const noexcept {
    return pecos_detections_;
  }
  [[nodiscard]] std::uint32_t hung_threads() const noexcept { return hung_threads_; }
  [[nodiscard]] std::optional<sim::Time> first_pecos_time() const noexcept {
    return first_pecos_time_;
  }
  [[nodiscard]] std::optional<sim::Time> crash_time() const noexcept {
    return crash_time_;
  }
  [[nodiscard]] std::optional<sim::Time> first_hang_time() const noexcept {
    return first_hang_time_;
  }
  [[nodiscard]] std::uint32_t terminated_by_audit() const noexcept {
    return terminated_by_audit_;
  }
  /// True once every thread reached a terminal state.
  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  void pump();
  void crash(vm::Trap trap);
  [[nodiscard]] bool all_terminal() const;

  db::Database& db_;
  sim::Cpu& cpu_;
  VmDriverConfig config_;
  db::DbApi api_;
  std::unique_ptr<vm::VmProcess> vmp_;
  vm::ExecMonitor* monitor_;
  std::function<void(const audit::CfViolation&)> violation_handler_;
  std::vector<bool> heal_pending_;
  std::uint32_t cursor_ = 0;
  bool crashed_ = false;
  bool finished_ = false;
  std::optional<vm::Trap> crash_trap_;
  std::uint32_t pecos_detections_ = 0;
  std::uint32_t hung_threads_ = 0;
  std::uint32_t terminated_by_audit_ = 0;
  std::optional<sim::Time> first_pecos_time_;
  std::optional<sim::Time> crash_time_;
  std::optional<sim::Time> first_hang_time_;
};

}  // namespace wtc::callproc
