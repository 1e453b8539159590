#include "vm/cfg.hpp"

#include <algorithm>

namespace wtc::vm {

Cfg Cfg::analyze(const Program& program) {
  Cfg cfg;
  std::vector<std::uint32_t> leaders;
  leaders.push_back(program.entry);

  const auto note_leader = [&](std::uint32_t pc) {
    if (pc < program.size()) {
      leaders.push_back(pc);
    }
  };

  // Pass 1: find CFIs (in pc order) and leaders.
  for (std::uint32_t pc = 0; pc < program.size(); ++pc) {
    const Instr instr = decode(program.text[pc]);
    if (!is_cfi(instr.op)) {
      continue;
    }
    CfiInfo info;
    info.site = pc;
    const auto imm = static_cast<std::uint32_t>(instr.imm);
    switch (instr.op) {
      case Opcode::Jmp:
        info.kind = CfiKind::Jump;
        info.targets = {imm, 0};
        info.target_count = 1;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge:
        info.kind = CfiKind::Branch;
        info.targets = {imm, pc + 1};
        info.target_count = 2;
        break;
      case Opcode::Call:
        info.kind = CfiKind::Call;
        info.targets = {imm, 0};
        info.target_count = 1;
        break;
      case Opcode::ICall:
        info.kind = CfiKind::IndirectCall;
        info.icall_reg = instr.ra;
        break;
      case Opcode::Ret:
        info.kind = CfiKind::Ret;
        break;
      default:
        break;
    }
    for (const std::uint32_t target : info.static_targets()) {
      note_leader(target);
    }
    note_leader(pc + 1);  // instruction after a CFI starts a block
    // Calls return: the instruction after a Call/ICall is a leader (added
    // above); the callee entry for ICall is unknown statically.
    cfg.cfis_.push_back(info);
  }

  std::sort(leaders.begin(), leaders.end());
  leaders.erase(std::unique(leaders.begin(), leaders.end()), leaders.end());
  cfg.leaders_ = std::move(leaders);

  // Pass 2: the per-pc tables. One sweep carries the greatest leader seen
  // so far (0 before the first), which is what the sorted search answers.
  cfg.pcs_.resize(program.size());
  auto next_leader = cfg.leaders_.begin();
  std::uint32_t leader = 0;
  for (std::uint32_t pc = 0; pc < program.size(); ++pc) {
    PcEntry& entry = cfg.pcs_[pc];
    if (next_leader != cfg.leaders_.end() && *next_leader == pc) {
      leader = pc;
      entry.is_leader = true;
      ++next_leader;
    }
    entry.leader = leader;
  }
  for (std::uint32_t i = 0; i < cfg.cfis_.size(); ++i) {
    CfiInfo& info = cfg.cfis_[i];
    cfg.pcs_[info.site].cfi = i;
    info.block_leader = cfg.pcs_[info.site].leader;
  }
  return cfg;
}

std::uint32_t Cfg::search_leader_of(std::uint32_t pc) const noexcept {
  auto it = std::upper_bound(leaders_.begin(), leaders_.end(), pc);
  return it == leaders_.begin() ? 0 : *(it - 1);
}

bool Cfg::search_is_leader(std::uint32_t pc) const noexcept {
  return std::binary_search(leaders_.begin(), leaders_.end(), pc);
}

}  // namespace wtc::vm
