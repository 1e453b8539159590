// Label-based program builder (the "assembler" for MiniVM).
//
// The call-processing client's per-call logic is written against this
// builder; forward label references are fixed up at build() time, the way
// an assembler resolves symbols.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "vm/program.hpp"

namespace wtc::vm {

class ProgramBuilder {
 public:
  /// Defines `name` at the current position. A label may be defined once.
  ProgramBuilder& label(const std::string& name);

  // --- straight-line instructions ---
  ProgramBuilder& nop();
  ProgramBuilder& halt();
  ProgramBuilder& loadi(std::uint8_t rd, std::int32_t imm);
  ProgramBuilder& mov(std::uint8_t rd, std::uint8_t ra);
  ProgramBuilder& add(std::uint8_t rd, std::uint8_t ra, std::uint8_t rb);
  ProgramBuilder& addi(std::uint8_t rd, std::uint8_t ra, std::int32_t imm);
  ProgramBuilder& sub(std::uint8_t rd, std::uint8_t ra, std::uint8_t rb);
  ProgramBuilder& mul(std::uint8_t rd, std::uint8_t ra, std::uint8_t rb);
  ProgramBuilder& div(std::uint8_t rd, std::uint8_t ra, std::uint8_t rb);
  ProgramBuilder& shl(std::uint8_t rd, std::uint8_t ra, std::int32_t imm);
  ProgramBuilder& shr(std::uint8_t rd, std::uint8_t ra, std::int32_t imm);
  ProgramBuilder& ld(std::uint8_t rd, std::uint8_t ra, std::int32_t imm);
  ProgramBuilder& st(std::uint8_t ra, std::int32_t imm, std::uint8_t rb);
  ProgramBuilder& rand(std::uint8_t rd, std::int32_t bound);
  ProgramBuilder& emit(std::int32_t code, std::uint8_t value_reg = 0);
  ProgramBuilder& sleepr(std::uint8_t ra);

  // --- control flow (targets are labels) ---
  ProgramBuilder& jmp(const std::string& target);
  ProgramBuilder& beq(std::uint8_t ra, std::uint8_t rb, const std::string& target);
  ProgramBuilder& bne(std::uint8_t ra, std::uint8_t rb, const std::string& target);
  ProgramBuilder& blt(std::uint8_t ra, std::uint8_t rb, const std::string& target);
  ProgramBuilder& bge(std::uint8_t ra, std::uint8_t rb, const std::string& target);
  ProgramBuilder& call(const std::string& target);
  ProgramBuilder& icall(std::uint8_t ra);
  ProgramBuilder& ret();

  /// Loads the address of `target` into `rd` (for icall dispatch tables).
  ProgramBuilder& load_label(std::uint8_t rd, const std::string& target);

  /// Emits `count` words of inter-function padding (undefined opcodes, the
  /// analog of alignment padding / data in a real text segment): control
  /// transferred into padding traps immediately.
  ProgramBuilder& pad(std::uint32_t count);

  // --- database ops ---
  ProgramBuilder& db_alloc(std::uint8_t rd, std::uint8_t table_reg,
                           std::uint8_t group_reg);
  ProgramBuilder& db_free(std::uint8_t table_reg, std::uint8_t record_reg);
  ProgramBuilder& db_read_fld(std::uint8_t rd, std::uint8_t table_reg,
                              std::uint8_t record_reg, std::int32_t field);
  ProgramBuilder& db_write_fld(std::uint8_t value_reg, std::uint8_t table_reg,
                               std::uint8_t record_reg, std::int32_t field);
  ProgramBuilder& db_move(std::uint8_t table_reg, std::uint8_t record_reg,
                          std::int32_t group);
  ProgramBuilder& db_txn_begin(std::uint8_t table_reg);
  ProgramBuilder& db_txn_end(std::uint8_t table_reg);

  [[nodiscard]] std::uint32_t here() const noexcept {
    return static_cast<std::uint32_t>(text_.size());
  }

  /// Resolves all label references and returns the program.
  /// Throws std::logic_error on undefined or duplicate labels.
  [[nodiscard]] Program build(std::uint32_t data_words = 256) &&;

 private:
  ProgramBuilder& push(Instr instr);
  ProgramBuilder& push_labelled(Instr instr, const std::string& target);

  std::vector<std::uint64_t> text_;
  std::unordered_map<std::string, std::uint32_t> labels_;
  std::vector<std::pair<std::uint32_t, std::string>> fixups_;  // (pc, label)
};

}  // namespace wtc::vm
