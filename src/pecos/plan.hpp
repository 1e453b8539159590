// PECOS instrumentation plan — the compile-time half of §6.1.1.
//
// The PECOS parser walks the application's assembly, decomposes it into
// basic blocks, and embeds an Assertion Block before every control flow
// instruction. Here the instrumenter analyzes the pristine MiniVM program
// and produces a plan: for every CFI site, the set of valid target
// addresses (static where known at "compile" time, a runtime recipe for
// indirect calls) plus the containing block's leader for the entry-point
// check. The runtime half (PecosMonitor) evaluates the plan preemptively.
//
// Valid-target cardinality follows the paper: one (jump), two (branch),
// or many (calls/returns — every return point in the program is a valid
// target of a return).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "vm/cfg.hpp"
#include "vm/program.hpp"

namespace wtc::pecos {

/// One embedded Assertion Block.
struct Assertion {
  vm::CfiKind kind = vm::CfiKind::Jump;
  std::uint32_t site = 0;
  std::uint32_t block_leader = 0;
  /// Static valid targets, viewing the plan's own storage: the CFI's inline
  /// targets, or for Ret the program's one return-point set. Empty for
  /// IndirectCall.
  std::span<const std::uint32_t> valid_targets;
  /// IndirectCall: register of the pristine instruction; the valid target
  /// is recomputed from it at runtime, independently of the (possibly
  /// corrupted) fetched instruction.
  std::uint8_t icall_reg = 0;
};

/// The full instrumentation of one program. Its assertions are parallel
/// to the Cfg's CFI vector, so finding a pc's assertion is one index.
class Plan {
 public:
  /// Builds the plan from the pristine program (runs CFG analysis).
  static Plan instrument(const vm::Program& program);

  Plan() = default;
  // Copies and moves re-point each assertion's target view at the new
  // plan's own storage.
  Plan(const Plan& other);
  Plan(Plan&& other) noexcept;
  Plan& operator=(const Plan& other);
  Plan& operator=(Plan&& other) noexcept;
  ~Plan() = default;

  [[nodiscard]] const Assertion* assertion_at(std::uint32_t pc) const noexcept {
    const vm::CfiInfo* cfi = cfg_.cfi_at(pc);
    return cfi == nullptr
               ? nullptr
               : &assertions_[static_cast<std::size_t>(cfi - cfg_.cfis().data())];
  }
  [[nodiscard]] std::size_t assertion_count() const noexcept {
    return assertions_.size();
  }
  [[nodiscard]] const vm::Cfg& cfg() const noexcept { return cfg_; }

  /// All `call_site + 1` addresses, sorted — the valid target set of every
  /// Ret.
  [[nodiscard]] const std::vector<std::uint32_t>& return_points() const noexcept {
    return return_points_;
  }

 private:
  /// Points every assertion's valid_targets at this plan's storage.
  void bind_targets() noexcept;

  vm::Cfg cfg_;
  std::vector<Assertion> assertions_;  // parallel to cfg_.cfis()
  std::vector<std::uint32_t> return_points_;
};

/// The Figure-7 control decision. Returns true when the impending control
/// transfer is VALID: P = !((Xout-X1)*(Xout-X2)*...): a match zeroes the
/// product, !0 == 1, and ID := Xout / P is computable; a mismatch makes
/// P == 0 and the division faults — the intentional divide-by-zero PECOS
/// routes to its signal handler.
[[nodiscard]] bool figure7_valid(std::uint32_t xout,
                                 std::span<const std::uint32_t> targets) noexcept;

}  // namespace wtc::pecos
