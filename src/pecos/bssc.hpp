// Block Signature Self-Checking (BSSC) — the classic embedded-signature
// scheme [MIR92] the paper's related work contrasts PECOS against (§2).
//
// At instrumentation time every basic block gets a golden signature: a
// checksum over the block's instruction words. At runtime the monitor
// accumulates a signature over the words actually FETCHED and compares it
// against the golden one when the block exits. This catches instruction
// substitutions PECOS cannot see (a corrupted ALU op that stays an ALU op
// never changes control flow) — but the comparison happens only at block
// exit, i.e. after the corrupted instructions executed: it is not
// preemptive, which is precisely the paper's critique. The ablation bench
// compares the three schemes head-to-head.
#pragma once

#include <cstdint>
#include <vector>

#include "vm/cfg.hpp"
#include "vm/interp.hpp"

namespace wtc::pecos {

/// Golden per-block signatures derived from the pristine program.
class BsscPlan {
 public:
  static BsscPlan instrument(const vm::Program& program);

  struct BlockInfo {
    std::uint32_t leader = 0;
    std::uint32_t end = 0;  ///< one past the last instruction of the block
    std::uint64_t golden_signature = 0;
  };

  /// Block info by leader pc; nullptr if `leader` does not start a block.
  /// Indexed loads, no hashing: blocks are numbered in leader order, and
  /// a leader pc past the text (an entry point outside the program) is
  /// the last block.
  [[nodiscard]] const BlockInfo* block_at(std::uint32_t leader) const noexcept {
    if (!cfg_.is_leader(leader)) {
      return nullptr;
    }
    return leader < block_of_.size() ? &blocks_[block_of_[leader]] : &blocks_.back();
  }
  [[nodiscard]] std::size_t block_count() const noexcept { return blocks_.size(); }
  [[nodiscard]] const vm::Cfg& cfg() const noexcept { return cfg_; }

  /// The signature combinator: order-sensitive so swapped/substituted
  /// instructions change the result.
  [[nodiscard]] static std::uint64_t combine(std::uint64_t signature,
                                             std::uint64_t word) noexcept {
    signature ^= word;
    signature *= 0x100000001B3ull;  // FNV-ish fold
    return signature;
  }

 private:
  vm::Cfg cfg_;
  std::vector<BlockInfo> blocks_;        ///< by block number (leader order)
  std::vector<std::uint32_t> block_of_;  ///< block number of each text pc
};

/// Runtime half: accumulates fetched-word signatures per thread and flags a
/// mismatch at block exit (non-preemptive by construction).
class BsscMonitor final : public vm::ExecMonitor {
 public:
  explicit BsscMonitor(const BsscPlan& plan) : plan_(plan) {}

  bool before_execute(const vm::VmThread& thread, std::uint32_t pc,
                      std::uint64_t word) override;
  void after_execute(const vm::VmThread& thread, std::uint32_t pc,
                     std::uint64_t word, std::uint32_t next_pc) override;
  void on_thread_start(std::uint32_t thread_id, std::uint32_t entry) override;

  [[nodiscard]] std::uint64_t checks() const noexcept { return checks_; }
  [[nodiscard]] std::uint64_t violations() const noexcept { return violations_; }

 private:
  struct ThreadState {
    /// The block being traversed (nullptr when its leader starts none).
    const BsscPlan::BlockInfo* block = nullptr;
    std::uint32_t expected_pc = 0;   ///< next pc if execution stays in-block
    std::uint64_t running = 0;       ///< signature over fetched words so far
    bool in_block = false;
    bool pending_violation = false;
  };

  void enter_block(ThreadState& state, std::uint32_t leader);
  /// Compares the running signature with the golden one for the finished
  /// span; arms pending_violation on mismatch.
  void check_signature(ThreadState& state, std::uint32_t end_pc);

  const BsscPlan& plan_;
  std::vector<ThreadState> threads_;
  std::uint64_t checks_ = 0;
  std::uint64_t violations_ = 0;
};

}  // namespace wtc::pecos
