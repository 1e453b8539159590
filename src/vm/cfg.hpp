// Control-flow-graph analysis of MiniVM programs.
//
// This is the compile-time half of PECOS (§6.1.1): decompose the program
// into basic blocks ("branch-free intervals"), find every CFI, and compute
// its set of valid target addresses — statically where the target is a
// constant in the instruction stream, or a recipe for runtime computation
// where it is not (indirect calls, returns).
//
// The paper's Assertion Blocks carry their valid targets as constants next
// to each CFI, so a check costs no lookup. The Cfg keeps the same property
// with flat per-pc tables sized by the program text: the containing
// block's leader, a leader flag and the CFI index of every pc, so
// leader_of / is_leader / cfi_at are one indexed load for an in-range pc.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "vm/program.hpp"

namespace wtc::vm {

/// How a CFI's valid targets are determined.
enum class CfiKind : std::uint8_t {
  Jump,          ///< one static target
  Branch,        ///< two static targets: taken + fall-through
  Call,          ///< one static target (+ return-address side effect)
  IndirectCall,  ///< target = regs[ra] at runtime (dynamic dispatch)
  Ret,           ///< target = return address at runtime
};

/// Everything PECOS needs to know about one CFI site.
struct CfiInfo {
  std::uint32_t site = 0;          ///< pc of the CFI
  CfiKind kind = CfiKind::Jump;
  /// IndirectCall: the register the *pristine* instruction reads — the
  /// runtime valid target is recomputed from it, independent of whatever
  /// the (possibly corrupted) fetched instruction does.
  std::uint8_t icall_reg = 0;
  std::uint8_t target_count = 0;   ///< live entries of `targets`
  std::uint32_t block_leader = 0;  ///< leader of the containing basic block
  /// Static valid targets, inline (Jump: {imm}; Branch: {imm, site+1};
  /// Call: {imm}; none for IndirectCall and Ret).
  std::array<std::uint32_t, 2> targets{};

  [[nodiscard]] std::span<const std::uint32_t> static_targets() const noexcept {
    return {targets.data(), target_count};
  }
};

/// Basic-block decomposition + CFI table.
class Cfg {
 public:
  static Cfg analyze(const Program& program);

  /// Sorted basic-block leader pcs.
  [[nodiscard]] const std::vector<std::uint32_t>& leaders() const noexcept {
    return leaders_;
  }

  /// Leader of the block containing `pc` (the greatest leader <= pc, 0
  /// when there is none).
  [[nodiscard]] std::uint32_t leader_of(std::uint32_t pc) const noexcept {
    return pc < pcs_.size() ? pcs_[pc].leader : search_leader_of(pc);
  }

  /// True if `pc` starts a basic block.
  [[nodiscard]] bool is_leader(std::uint32_t pc) const noexcept {
    return pc < pcs_.size() ? pcs_[pc].is_leader : search_is_leader(pc);
  }

  /// CFI info at `pc`, nullptr if `pc` is not a CFI site.
  [[nodiscard]] const CfiInfo* cfi_at(std::uint32_t pc) const noexcept {
    if (pc >= pcs_.size() || pcs_[pc].cfi == kNoCfi) {
      return nullptr;
    }
    return &cfis_[pcs_[pc].cfi];
  }

  /// Every CFI, sorted by site.
  [[nodiscard]] const std::vector<CfiInfo>& cfis() const noexcept { return cfis_; }

  [[nodiscard]] std::size_t block_count() const noexcept { return leaders_.size(); }

 private:
  static constexpr std::uint32_t kNoCfi = 0xFFFFFFFFu;
  /// What the analysis knows about one pc of the program text.
  struct PcEntry {
    std::uint32_t leader = 0;    ///< leader_of(pc)
    std::uint32_t cfi = kNoCfi;  ///< index into cfis_
    bool is_leader = false;
  };

  // Searches of the sorted leaders, for pcs past the text (a corrupted
  // target, or an entry point outside the program, which is a leader).
  [[nodiscard]] std::uint32_t search_leader_of(std::uint32_t pc) const noexcept;
  [[nodiscard]] bool search_is_leader(std::uint32_t pc) const noexcept;

  std::vector<std::uint32_t> leaders_;  // sorted
  std::vector<CfiInfo> cfis_;           // sorted by site
  std::vector<PcEntry> pcs_;            // one per word of program text
};

}  // namespace wtc::vm
