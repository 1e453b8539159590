// Guaranteed healing of a control-flow-violating client thread (the ACFA
// promise layered on PECOS detection).
//
// A CfViolation — preemptive (PECOS assertion trap) or deferred (CF-log
// attestation slice) — reaches the *active* manager, whose CfHealer runs
// the healing sequence:
//   1. terminate   — stop the offending thread (HealableClient hook)
//   2. restore     — reload every record the thread touched from the
//                    golden disk copy (existing audit recovery machinery),
//                    skipping records another thread has since re-allocated
//   3. replay      — re-apply the thread's *trusted* DbApi op tail (ops
//                    stamped strictly before the violating transfer; ops of
//                    the violation's own quantum are conservatively
//                    suspect), then free the records the thread still held
//                    (it restarts from scratch, so in-flight call state is
//                    released), relink chains, rebuild indices, and verify
//                    every touched header
//   4. restart     — clear the thread's CF/op logs and restart it at a
//                    clean entry with pristine program text
//
// Idempotence: the same violating transfer is often reported twice (the
// preemptive monitor and the attestation slice both see it); a violation
// no newer than the thread's last completed heal is skipped. If healing
// itself faults twice, the healer escalates to the
// existing recovery ladder: the client process is killed (ClientControl)
// and the escalation is reported as a finding.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "audit/report.hpp"
#include "db/database.hpp"
#include "db/op_log.hpp"
#include "pecos/cf_log.hpp"
#include "sim/time.hpp"

namespace wtc::manager {

class CfHealer {
 public:
  /// `control` and `sink` may be null (no escalation target / no report
  /// consumer); `clock` supplies sim time for findings and the
  /// idempotence stamp.
  CfHealer(db::Database& db, db::ThreadOpLog& op_log, pecos::CfLog& cf_log,
           audit::HealableClient& client, audit::ClientControl* control,
           audit::ReportSink* sink, std::function<sim::Time()> clock);

  /// Runs the healing sequence. Returns true when the thread ends up
  /// healed (including the idempotent already-healed case), false when the
  /// sequence escalated.
  bool heal(const audit::CfViolation& violation);

  /// Test seam: invoked at the start of each healing stage (1-based);
  /// throwing from it models a fault inside the healing sequence itself.
  void set_fault_hook(std::function<void(std::uint32_t stage)> hook) {
    fault_hook_ = std::move(hook);
  }

  [[nodiscard]] std::uint64_t heals() const noexcept { return heals_; }
  [[nodiscard]] std::uint64_t skipped() const noexcept { return skipped_; }
  [[nodiscard]] std::uint64_t escalations() const noexcept { return escalations_; }
  [[nodiscard]] std::uint64_t replayed_ops() const noexcept { return replayed_; }
  [[nodiscard]] std::uint64_t restored_records() const noexcept {
    return restored_;
  }

 private:
  /// One attempt at stages 1-4; throws on a stage fault.
  void try_heal(const audit::CfViolation& violation);
  void stage(std::uint32_t number, const char* name,
             const std::function<void()>& body);
  void replay_op(const db::ApiEvent& op);
  void escalate(const audit::CfViolation& violation);

  db::Database& db_;
  db::ThreadOpLog& op_log_;
  pecos::CfLog& cf_log_;
  audit::HealableClient& client_;
  audit::ClientControl* control_;
  audit::ReportSink* sink_;
  std::function<sim::Time()> clock_;
  std::function<void(std::uint32_t stage)> fault_hook_;
  /// Per-thread sim time of the last completed heal (idempotence guard).
  struct LastHeal {
    sim::Time time = 0;
    bool valid = false;
  };
  std::vector<LastHeal> last_heal_;
  std::uint64_t heals_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t escalations_ = 0;
  std::uint64_t replayed_ = 0;
  std::uint64_t restored_ = 0;
};

}  // namespace wtc::manager
