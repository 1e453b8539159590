#include "pecos/bssc.hpp"

#include <algorithm>

namespace wtc::pecos {

BsscPlan BsscPlan::instrument(const vm::Program& program) {
  BsscPlan plan;
  plan.cfg_ = vm::Cfg::analyze(program);
  const auto& leaders = plan.cfg_.leaders();
  plan.blocks_.reserve(leaders.size());
  plan.block_of_.assign(program.size(), 0);
  for (std::size_t i = 0; i < leaders.size(); ++i) {
    BlockInfo info;
    info.leader = leaders[i];
    info.end = i + 1 < leaders.size() ? leaders[i + 1] : program.size();
    std::uint64_t signature = 0;
    for (std::uint32_t pc = info.leader; pc < info.end; ++pc) {
      signature = combine(signature, program.text[pc]);
    }
    info.golden_signature = signature;
    plan.blocks_.push_back(info);
    if (info.leader < program.size()) {
      plan.block_of_[info.leader] = static_cast<std::uint32_t>(i);
    }
  }
  return plan;
}

void BsscMonitor::on_thread_start(std::uint32_t thread_id, std::uint32_t entry) {
  if (threads_.size() <= thread_id) {
    threads_.resize(thread_id + 1);
  }
  auto& state = threads_[thread_id];
  state = ThreadState{};
  enter_block(state, plan_.cfg().leader_of(entry));
}

void BsscMonitor::enter_block(ThreadState& state, std::uint32_t leader) {
  state.block = plan_.block_at(leader);
  state.expected_pc = leader;
  state.running = 0;
  state.in_block = true;
}

void BsscMonitor::check_signature(ThreadState& state, std::uint32_t end_pc) {
  (void)end_pc;
  ++checks_;
  if (state.block != nullptr && state.running != state.block->golden_signature) {
    ++violations_;
    state.pending_violation = true;  // fires on the NEXT fetch: post-hoc
  }
  state.in_block = false;
}

bool BsscMonitor::before_execute(const vm::VmThread& thread, std::uint32_t pc,
                                 std::uint64_t word) {
  if (thread.id() >= threads_.size()) {
    return false;
  }
  auto& state = threads_[thread.id()];
  if (state.pending_violation) {
    // The mismatching block has fully executed — detection is late by
    // construction (the scheme's defining weakness versus PECOS).
    state.pending_violation = false;
    return true;
  }

  if (plan_.cfg().is_leader(pc)) {
    // Entering a block at its head (fall-through or a taken transfer).
    enter_block(state, pc);
  } else if (!state.in_block || pc != state.expected_pc) {
    // Control arrived mid-block: accumulate a partial signature that will
    // mismatch the golden one at the block's end marker.
    enter_block(state, plan_.cfg().leader_of(pc));
    state.running = BsscPlan::combine(0, 0xBAD5EEDull);  // poisoned prefix
  }

  // Accumulate the word actually fetched (ADDIF substitutions and DATA*
  // flips all perturb the signature).
  state.running = BsscPlan::combine(state.running, word);
  state.expected_pc = pc + 1;

  if (state.block != nullptr && pc + 1 >= state.block->end) {
    check_signature(state, pc + 1);
  }
  return false;
}

void BsscMonitor::after_execute(const vm::VmThread&, std::uint32_t,
                                std::uint64_t, std::uint32_t) {}

}  // namespace wtc::pecos
