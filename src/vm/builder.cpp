#include "vm/builder.hpp"

#include <stdexcept>

namespace wtc::vm {

ProgramBuilder& ProgramBuilder::push(Instr instr) {
  text_.push_back(encode(instr));
  return *this;
}

ProgramBuilder& ProgramBuilder::push_labelled(Instr instr, const std::string& target) {
  fixups_.emplace_back(here(), target);
  return push(instr);
}

ProgramBuilder& ProgramBuilder::label(const std::string& name) {
  if (!labels_.emplace(name, here()).second) {
    throw std::logic_error("duplicate label: " + name);
  }
  return *this;
}

ProgramBuilder& ProgramBuilder::nop() { return push({Opcode::Nop}); }
ProgramBuilder& ProgramBuilder::halt() { return push({Opcode::Halt}); }

ProgramBuilder& ProgramBuilder::loadi(std::uint8_t rd, std::int32_t imm) {
  return push({Opcode::LoadI, rd, 0, 0, imm});
}
ProgramBuilder& ProgramBuilder::mov(std::uint8_t rd, std::uint8_t ra) {
  return push({Opcode::Mov, rd, ra, 0, 0});
}
ProgramBuilder& ProgramBuilder::add(std::uint8_t rd, std::uint8_t ra, std::uint8_t rb) {
  return push({Opcode::Add, rd, ra, rb, 0});
}
ProgramBuilder& ProgramBuilder::addi(std::uint8_t rd, std::uint8_t ra, std::int32_t imm) {
  return push({Opcode::AddI, rd, ra, 0, imm});
}
ProgramBuilder& ProgramBuilder::sub(std::uint8_t rd, std::uint8_t ra, std::uint8_t rb) {
  return push({Opcode::Sub, rd, ra, rb, 0});
}
ProgramBuilder& ProgramBuilder::mul(std::uint8_t rd, std::uint8_t ra, std::uint8_t rb) {
  return push({Opcode::Mul, rd, ra, rb, 0});
}
ProgramBuilder& ProgramBuilder::div(std::uint8_t rd, std::uint8_t ra, std::uint8_t rb) {
  return push({Opcode::Div, rd, ra, rb, 0});
}
ProgramBuilder& ProgramBuilder::shl(std::uint8_t rd, std::uint8_t ra, std::int32_t imm) {
  return push({Opcode::Shl, rd, ra, 0, imm});
}
ProgramBuilder& ProgramBuilder::shr(std::uint8_t rd, std::uint8_t ra, std::int32_t imm) {
  return push({Opcode::Shr, rd, ra, 0, imm});
}
ProgramBuilder& ProgramBuilder::ld(std::uint8_t rd, std::uint8_t ra, std::int32_t imm) {
  return push({Opcode::Ld, rd, ra, 0, imm});
}
ProgramBuilder& ProgramBuilder::st(std::uint8_t ra, std::int32_t imm, std::uint8_t rb) {
  return push({Opcode::St, 0, ra, rb, imm});
}
ProgramBuilder& ProgramBuilder::rand(std::uint8_t rd, std::int32_t bound) {
  return push({Opcode::Rand, rd, 0, 0, bound});
}
ProgramBuilder& ProgramBuilder::emit(std::int32_t code, std::uint8_t value_reg) {
  return push({Opcode::Emit, value_reg, 0, 0, code});
}
ProgramBuilder& ProgramBuilder::sleepr(std::uint8_t ra) {
  return push({Opcode::SleepR, 0, ra, 0, 0});
}

ProgramBuilder& ProgramBuilder::jmp(const std::string& target) {
  return push_labelled({Opcode::Jmp}, target);
}
ProgramBuilder& ProgramBuilder::beq(std::uint8_t ra, std::uint8_t rb,
                                    const std::string& target) {
  return push_labelled({Opcode::Beq, 0, ra, rb, 0}, target);
}
ProgramBuilder& ProgramBuilder::bne(std::uint8_t ra, std::uint8_t rb,
                                    const std::string& target) {
  return push_labelled({Opcode::Bne, 0, ra, rb, 0}, target);
}
ProgramBuilder& ProgramBuilder::blt(std::uint8_t ra, std::uint8_t rb,
                                    const std::string& target) {
  return push_labelled({Opcode::Blt, 0, ra, rb, 0}, target);
}
ProgramBuilder& ProgramBuilder::bge(std::uint8_t ra, std::uint8_t rb,
                                    const std::string& target) {
  return push_labelled({Opcode::Bge, 0, ra, rb, 0}, target);
}
ProgramBuilder& ProgramBuilder::call(const std::string& target) {
  return push_labelled({Opcode::Call}, target);
}
ProgramBuilder& ProgramBuilder::icall(std::uint8_t ra) {
  return push({Opcode::ICall, 0, ra, 0, 0});
}
ProgramBuilder& ProgramBuilder::ret() { return push({Opcode::Ret}); }

ProgramBuilder& ProgramBuilder::load_label(std::uint8_t rd, const std::string& target) {
  return push_labelled({Opcode::LoadI, rd, 0, 0, 0}, target);
}

ProgramBuilder& ProgramBuilder::pad(std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) {
    text_.push_back(0xEEull);  // undefined opcode
  }
  return *this;
}

ProgramBuilder& ProgramBuilder::db_alloc(std::uint8_t rd, std::uint8_t table_reg,
                                         std::uint8_t group_reg) {
  return push({Opcode::DbAlloc, rd, table_reg, group_reg, 0});
}
ProgramBuilder& ProgramBuilder::db_free(std::uint8_t table_reg,
                                        std::uint8_t record_reg) {
  return push({Opcode::DbFree, 0, table_reg, record_reg, 0});
}
ProgramBuilder& ProgramBuilder::db_read_fld(std::uint8_t rd, std::uint8_t table_reg,
                                            std::uint8_t record_reg,
                                            std::int32_t field) {
  return push({Opcode::DbReadFld, rd, table_reg, record_reg, field});
}
ProgramBuilder& ProgramBuilder::db_write_fld(std::uint8_t value_reg,
                                             std::uint8_t table_reg,
                                             std::uint8_t record_reg,
                                             std::int32_t field) {
  return push({Opcode::DbWriteFld, value_reg, table_reg, record_reg, field});
}
ProgramBuilder& ProgramBuilder::db_move(std::uint8_t table_reg,
                                        std::uint8_t record_reg, std::int32_t group) {
  return push({Opcode::DbMove, 0, table_reg, record_reg, group});
}
ProgramBuilder& ProgramBuilder::db_txn_begin(std::uint8_t table_reg) {
  return push({Opcode::DbTxnBegin, 0, table_reg, 0, 0});
}
ProgramBuilder& ProgramBuilder::db_txn_end(std::uint8_t table_reg) {
  return push({Opcode::DbTxnEnd, 0, table_reg, 0, 0});
}

Program ProgramBuilder::build(std::uint32_t data_words) && {
  for (const auto& [pc, name] : fixups_) {
    const auto it = labels_.find(name);
    if (it == labels_.end()) {
      throw std::logic_error("undefined label: " + name);
    }
    Instr instr = decode(text_[pc]);
    instr.imm = static_cast<std::int32_t>(it->second);
    text_[pc] = encode(instr);
  }
  Program program;
  program.text = std::move(text_);
  program.entry = 0;
  program.data_words = data_words;
  return program;
}

}  // namespace wtc::vm
