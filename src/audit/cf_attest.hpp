// Control-flow attestation audit element (ACFA-style, PECOS → continuous).
//
// Consumes the per-thread CF log every `slice_period` and validates each
// retired control transfer against the PECOS plan:
//   * the transfer's source must be a CFI site of the *pristine* program
//     (an instruction corrupted into a CFI has no such site),
//   * the landing must be in the CFI's valid-target set (static targets
//     for jump/branch/call, block leaders for indirect calls, the
//     return-point set for returns),
//   * continuity (the block-entry shadow rule, log edition): execution
//     must reach the source linearly from the previous landing — forward
//     only, with no unconditional CFI site in between (one of those would
//     itself have been logged).
//
// Detection latency is bounded by the slice period: every logged entry is
// stamped with its quantum start time, and a slice at time S drains all
// entries with time <= S, so a violating transfer waits at most one
// period. A full ring forces an early slice (CfLog overflow policy), so
// bursty threads are attested *sooner*, never dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "audit/process.hpp"
#include "audit/report.hpp"
#include "db/op_log.hpp"
#include "pecos/cf_log.hpp"
#include "pecos/plan.hpp"

namespace wtc::audit {

struct CfAttestConfig {
  sim::Duration slice_period = 100 * static_cast<sim::Duration>(sim::kMillisecond);
};

class CfAttestElement final : public AuditElement {
 public:
  /// `client_pid` stamps violations with the client process id (resolved
  /// lazily — the client spawns after the audit process). `on_violation`
  /// routes detections to the healing path; may be empty (detect-only).
  CfAttestElement(pecos::CfLog& log, const pecos::Plan& plan,
                  CfAttestConfig config,
                  std::function<sim::ProcessId()> client_pid,
                  std::function<void(const CfViolation&)> on_violation);

  [[nodiscard]] std::string_view name() const override { return "cf-attest"; }
  void on_start(AuditProcess& process) override;

  /// Healing replay bookkeeping: clean slices advance this log's
  /// per-thread watermark (optional).
  void set_op_log(db::ThreadOpLog* op_log) noexcept { op_log_ = op_log; }

  [[nodiscard]] std::uint64_t slices() const noexcept { return slices_; }
  [[nodiscard]] std::uint64_t transitions_attested() const noexcept {
    return attested_;
  }
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }
  /// Worst observed detection latency (µs of sim time), violations only.
  [[nodiscard]] std::uint64_t max_detection_latency_us() const noexcept {
    return max_latency_us_;
  }
  [[nodiscard]] std::optional<sim::Time> first_violation_time() const noexcept {
    return first_violation_;
  }

 private:
  struct Shadow {
    std::uint32_t landing = 0;  ///< last legitimate landing pc
    bool valid = false;
  };

  void tick(AuditProcess& process);
  void slice_thread(std::uint32_t thread, sim::Time now);
  [[nodiscard]] bool transition_valid(const pecos::CfTransition& entry,
                                      const Shadow& shadow) const;
  void flag(const pecos::CfTransition& entry, sim::Time now);
  Shadow& shadow_for(std::uint32_t thread);

  pecos::CfLog& log_;
  const pecos::Plan& plan_;
  CfAttestConfig config_;
  std::function<sim::ProcessId()> client_pid_;
  std::function<void(const CfViolation&)> on_violation_;
  db::ThreadOpLog* op_log_ = nullptr;
  AuditProcess* process_ = nullptr;
  std::vector<Shadow> shadows_;
  /// Sorted pcs of CFIs that always transfer (Jmp/Call/ICall/Ret): legit
  /// linear execution cannot cross one of these without logging it.
  std::vector<std::uint32_t> unconditional_sites_;
  std::vector<pecos::CfTransition> scratch_;
  std::uint64_t slices_ = 0;
  std::uint64_t attested_ = 0;
  std::uint64_t violations_ = 0;
  std::uint64_t max_latency_us_ = 0;
  std::optional<sim::Time> first_violation_;
};

}  // namespace wtc::audit
