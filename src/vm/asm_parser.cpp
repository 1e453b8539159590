#include "vm/asm_parser.hpp"

#include <cctype>
#include <charconv>
#include <optional>
#include <unordered_map>
#include <vector>

namespace wtc::vm {
namespace {

struct Token {
  std::string text;
};

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string current;
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      if (!current.empty()) {
        tokens.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    tokens.push_back(std::move(current));
  }
  return tokens;
}

/// A parsed-but-unresolved instruction: `label_imm` defers the immediate.
struct Pending {
  Instr instr;
  std::string label_imm;  // empty if imm is literal
  std::size_t line;
};

class Assembler {
 public:
  Program run(std::string_view source) {
    std::size_t line_no = 0;
    std::size_t start = 0;
    while (start <= source.size()) {
      const std::size_t end = source.find('\n', start);
      const std::string_view raw =
          source.substr(start, end == std::string_view::npos ? std::string_view::npos
                                                             : end - start);
      ++line_no;
      parse_line(raw, line_no);
      if (end == std::string_view::npos) {
        break;
      }
      start = end + 1;
    }
    return finish();
  }

 private:
  void parse_line(std::string_view raw, std::size_t line) {
    // Strip comments.
    const std::size_t comment = raw.find_first_of(";#");
    std::string_view body =
        comment == std::string_view::npos ? raw : raw.substr(0, comment);

    auto tokens = tokenize(body);
    // Leading label definitions ("name:").
    while (!tokens.empty() && tokens.front().back() == ':') {
      std::string name = tokens.front().substr(0, tokens.front().size() - 1);
      if (name.empty()) {
        throw AsmError(line, "empty label");
      }
      if (!labels_.emplace(name, address()).second) {
        throw AsmError(line, "duplicate label '" + name + "'");
      }
      tokens.erase(tokens.begin());
    }
    if (tokens.empty()) {
      return;
    }
    const std::string mnemonic = lower(tokens[0]);
    tokens.erase(tokens.begin());

    if (mnemonic == ".pad") {
      const std::int64_t n = parse_int(expect(tokens, 0, line, "pad count"), line);
      for (std::int64_t i = 0; i < n; ++i) {
        words_.push_back({Instr{static_cast<Opcode>(0xEE)}, "", line});
      }
      return;
    }
    if (mnemonic == ".data") {
      data_words_ = static_cast<std::uint32_t>(
          parse_int(expect(tokens, 0, line, "data size"), line));
      return;
    }
    emit(mnemonic, tokens, line);
  }

  static std::string lower(std::string s) {
    for (char& c : s) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return s;
  }

  [[nodiscard]] std::uint32_t address() const noexcept {
    return static_cast<std::uint32_t>(words_.size());
  }

  static const std::string& expect(const std::vector<std::string>& tokens,
                                   std::size_t index, std::size_t line,
                                   const char* what) {
    if (index >= tokens.size()) {
      throw AsmError(line, std::string("missing operand: ") + what);
    }
    return tokens[index];
  }

  static std::int64_t parse_int(const std::string& token, std::size_t line) {
    std::int64_t value = 0;
    const bool hex = token.starts_with("0x") || token.starts_with("0X") ||
                     token.starts_with("-0x");
    const char* first = token.data();
    const char* last = token.data() + token.size();
    std::from_chars_result parsed{};
    if (hex) {
      const bool negative = token[0] == '-';
      const char* digits = first + (negative ? 3 : 2);
      std::uint64_t magnitude = 0;
      parsed = std::from_chars(digits, last, magnitude, 16);
      value = negative ? -static_cast<std::int64_t>(magnitude)
                       : static_cast<std::int64_t>(magnitude);
    } else {
      parsed = std::from_chars(first, last, value, 10);
    }
    if (parsed.ec != std::errc{} || parsed.ptr != last) {
      throw AsmError(line, "bad integer '" + token + "'");
    }
    if (value < INT32_MIN || value > INT32_MAX) {
      throw AsmError(line, "immediate out of range: " + token);
    }
    return value;
  }

  static std::uint8_t parse_reg(const std::string& token, std::size_t line) {
    if (token.size() < 2 || (token[0] != 'r' && token[0] != 'R')) {
      throw AsmError(line, "expected register, got '" + token + "'");
    }
    const std::int64_t n = parse_int(token.substr(1), line);
    if (n < 0 || n >= static_cast<std::int64_t>(kNumRegs)) {
      throw AsmError(line, "no such register '" + token + "'");
    }
    return static_cast<std::uint8_t>(n);
  }

  /// An immediate operand may be a literal or a label reference.
  void set_imm(Pending& pending, const std::string& token, std::size_t line) {
    if (std::isdigit(static_cast<unsigned char>(token[0])) || token[0] == '-') {
      pending.instr.imm = static_cast<std::int32_t>(parse_int(token, line));
    } else {
      pending.label_imm = token;
    }
  }

  void emit(const std::string& mnemonic, const std::vector<std::string>& ops,
            std::size_t line) {
    Pending pending;
    pending.line = line;
    Instr& instr = pending.instr;

    const auto reg = [&](std::size_t i) {
      return parse_reg(expect(ops, i, line, "register"), line);
    };
    const auto imm_at = [&](std::size_t i) {
      set_imm(pending, expect(ops, i, line, "immediate"), line);
    };

    if (mnemonic == "nop") {
      instr.op = Opcode::Nop;
    } else if (mnemonic == "halt") {
      instr.op = Opcode::Halt;
    } else if (mnemonic == "loadi") {
      instr.op = Opcode::LoadI;
      instr.rd = reg(0);
      imm_at(1);
    } else if (mnemonic == "mov") {
      instr.op = Opcode::Mov;
      instr.rd = reg(0);
      instr.ra = reg(1);
    } else if (mnemonic == "add" || mnemonic == "sub" || mnemonic == "mul" ||
               mnemonic == "div" || mnemonic == "and" || mnemonic == "or" ||
               mnemonic == "xor") {
      instr.op = mnemonic == "add"   ? Opcode::Add
                 : mnemonic == "sub" ? Opcode::Sub
                 : mnemonic == "mul" ? Opcode::Mul
                 : mnemonic == "div" ? Opcode::Div
                 : mnemonic == "and" ? Opcode::And
                 : mnemonic == "or"  ? Opcode::Or
                                     : Opcode::Xor;
      instr.rd = reg(0);
      instr.ra = reg(1);
      instr.rb = reg(2);
    } else if (mnemonic == "addi") {
      instr.op = Opcode::AddI;
      instr.rd = reg(0);
      instr.ra = reg(1);
      imm_at(2);
    } else if (mnemonic == "shl" || mnemonic == "shr") {
      instr.op = mnemonic == "shl" ? Opcode::Shl : Opcode::Shr;
      instr.rd = reg(0);
      instr.ra = reg(1);
      imm_at(2);
    } else if (mnemonic == "ld") {
      instr.op = Opcode::Ld;
      instr.rd = reg(0);
      instr.ra = reg(1);
      imm_at(2);
    } else if (mnemonic == "st") {
      instr.op = Opcode::St;
      instr.ra = reg(0);
      imm_at(1);
      instr.rb = reg(2);
    } else if (mnemonic == "rand") {
      instr.op = Opcode::Rand;
      instr.rd = reg(0);
      imm_at(1);
    } else if (mnemonic == "emit") {
      instr.op = Opcode::Emit;
      imm_at(0);
      instr.rd = ops.size() > 1 ? reg(1) : 0;
    } else if (mnemonic == "sleepr") {
      instr.op = Opcode::SleepR;
      instr.ra = reg(0);
    } else if (mnemonic == "jmp") {
      instr.op = Opcode::Jmp;
      imm_at(0);
    } else if (mnemonic == "beq" || mnemonic == "bne" || mnemonic == "blt" ||
               mnemonic == "bge") {
      instr.op = mnemonic == "beq"   ? Opcode::Beq
                 : mnemonic == "bne" ? Opcode::Bne
                 : mnemonic == "blt" ? Opcode::Blt
                                     : Opcode::Bge;
      instr.ra = reg(0);
      instr.rb = reg(1);
      imm_at(2);
    } else if (mnemonic == "call") {
      instr.op = Opcode::Call;
      imm_at(0);
    } else if (mnemonic == "icall") {
      instr.op = Opcode::ICall;
      instr.ra = reg(0);
    } else if (mnemonic == "ret") {
      instr.op = Opcode::Ret;
    } else if (mnemonic == "db.alloc") {
      instr.op = Opcode::DbAlloc;
      instr.rd = reg(0);
      instr.ra = reg(1);
      instr.rb = reg(2);
    } else if (mnemonic == "db.free") {
      instr.op = Opcode::DbFree;
      instr.ra = reg(0);
      instr.rb = reg(1);
    } else if (mnemonic == "db.readfld") {
      instr.op = Opcode::DbReadFld;
      instr.rd = reg(0);
      instr.ra = reg(1);
      instr.rb = reg(2);
      imm_at(3);
    } else if (mnemonic == "db.writefld") {
      instr.op = Opcode::DbWriteFld;
      instr.rd = reg(0);
      instr.ra = reg(1);
      instr.rb = reg(2);
      imm_at(3);
    } else if (mnemonic == "db.move") {
      instr.op = Opcode::DbMove;
      instr.ra = reg(0);
      instr.rb = reg(1);
      imm_at(2);
    } else if (mnemonic == "db.txnbegin") {
      instr.op = Opcode::DbTxnBegin;
      instr.ra = reg(0);
    } else if (mnemonic == "db.txnend") {
      instr.op = Opcode::DbTxnEnd;
      instr.ra = reg(0);
    } else {
      throw AsmError(line, "unknown mnemonic '" + mnemonic + "'");
    }
    words_.push_back(std::move(pending));
  }

  Program finish() {
    Program program;
    program.data_words = data_words_;
    program.text.reserve(words_.size());
    for (auto& pending : words_) {
      if (!pending.label_imm.empty()) {
        const auto it = labels_.find(pending.label_imm);
        if (it == labels_.end()) {
          throw AsmError(pending.line,
                         "undefined label '" + pending.label_imm + "'");
        }
        pending.instr.imm = static_cast<std::int32_t>(it->second);
      }
      program.text.push_back(encode(pending.instr));
    }
    return program;
  }

  std::vector<Pending> words_;
  std::unordered_map<std::string, std::uint32_t> labels_;
  std::uint32_t data_words_ = 256;
};

}  // namespace

Program assemble(std::string_view source) {
  Assembler assembler;
  return assembler.run(source);
}

namespace {

void append(std::string& out, const char* mnemonic,
            std::initializer_list<std::string> operands) {
  out += "    ";
  out += mnemonic;
  bool first = true;
  for (const auto& operand : operands) {
    out += first ? " " : ", ";
    out += operand;
    first = false;
  }
  out += '\n';
}

/// `prefix` followed by decimal `value`, built by appending to the prefix
/// (GCC 12 at -O3 reports a false -Wrestrict overlap for the equivalent
/// `"r" + std::to_string(value)`, which inserts at the front).
std::string prefixed(const char* prefix, std::uint32_t value) {
  std::string out = prefix;
  out += std::to_string(value);
  return out;
}

std::string reg(std::uint8_t r) { return prefixed("r", r); }
std::string imm(std::int32_t v) { return std::to_string(v); }

}  // namespace

std::string format_asm(const Program& program) {
  // Label every CFI target so the output is position-independent text.
  std::vector<bool> labelled(program.size(), false);
  for (std::uint32_t pc = 0; pc < program.size(); ++pc) {
    const Instr instr = decode(program.text[pc]);
    if (!opcode_defined(static_cast<std::uint8_t>(instr.op))) {
      continue;
    }
    const bool targets_imm = instr.op == Opcode::Jmp || instr.op == Opcode::Call ||
                             is_branch(instr.op);
    if (targets_imm) {
      const auto target = static_cast<std::uint32_t>(instr.imm);
      if (target < program.size()) {
        labelled[target] = true;
      }
    }
  }
  const auto target_ref = [&](std::int32_t value) -> std::string {
    const auto target = static_cast<std::uint32_t>(value);
    if (target < program.size() && labelled[target]) {
      return prefixed("L", target);
    }
    return imm(value);
  };

  std::string out;
  if (program.data_words != 256) {
    out += "    .data " + std::to_string(program.data_words) + '\n';
  }
  for (std::uint32_t pc = 0; pc < program.size(); ++pc) {
    if (labelled[pc]) {
      out += prefixed("L", pc);
      out += ":\n";
    }
    const Instr i = decode(program.text[pc]);
    switch (i.op) {
      case Opcode::Nop: append(out, "nop", {}); break;
      case Opcode::Halt: append(out, "halt", {}); break;
      case Opcode::LoadI: append(out, "loadi", {reg(i.rd), imm(i.imm)}); break;
      case Opcode::Mov: append(out, "mov", {reg(i.rd), reg(i.ra)}); break;
      case Opcode::Add: append(out, "add", {reg(i.rd), reg(i.ra), reg(i.rb)}); break;
      case Opcode::AddI: append(out, "addi", {reg(i.rd), reg(i.ra), imm(i.imm)}); break;
      case Opcode::Sub: append(out, "sub", {reg(i.rd), reg(i.ra), reg(i.rb)}); break;
      case Opcode::Mul: append(out, "mul", {reg(i.rd), reg(i.ra), reg(i.rb)}); break;
      case Opcode::Div: append(out, "div", {reg(i.rd), reg(i.ra), reg(i.rb)}); break;
      case Opcode::And: append(out, "and", {reg(i.rd), reg(i.ra), reg(i.rb)}); break;
      case Opcode::Or: append(out, "or", {reg(i.rd), reg(i.ra), reg(i.rb)}); break;
      case Opcode::Xor: append(out, "xor", {reg(i.rd), reg(i.ra), reg(i.rb)}); break;
      case Opcode::Shl: append(out, "shl", {reg(i.rd), reg(i.ra), imm(i.imm)}); break;
      case Opcode::Shr: append(out, "shr", {reg(i.rd), reg(i.ra), imm(i.imm)}); break;
      case Opcode::Ld: append(out, "ld", {reg(i.rd), reg(i.ra), imm(i.imm)}); break;
      case Opcode::St: append(out, "st", {reg(i.ra), imm(i.imm), reg(i.rb)}); break;
      case Opcode::Rand: append(out, "rand", {reg(i.rd), imm(i.imm)}); break;
      case Opcode::Emit: append(out, "emit", {imm(i.imm), reg(i.rd)}); break;
      case Opcode::SleepR: append(out, "sleepr", {reg(i.ra)}); break;
      case Opcode::Jmp: append(out, "jmp", {target_ref(i.imm)}); break;
      case Opcode::Beq:
        append(out, "beq", {reg(i.ra), reg(i.rb), target_ref(i.imm)});
        break;
      case Opcode::Bne:
        append(out, "bne", {reg(i.ra), reg(i.rb), target_ref(i.imm)});
        break;
      case Opcode::Blt:
        append(out, "blt", {reg(i.ra), reg(i.rb), target_ref(i.imm)});
        break;
      case Opcode::Bge:
        append(out, "bge", {reg(i.ra), reg(i.rb), target_ref(i.imm)});
        break;
      case Opcode::Call: append(out, "call", {target_ref(i.imm)}); break;
      case Opcode::ICall: append(out, "icall", {reg(i.ra)}); break;
      case Opcode::Ret: append(out, "ret", {}); break;
      case Opcode::DbAlloc:
        append(out, "db.alloc", {reg(i.rd), reg(i.ra), reg(i.rb)});
        break;
      case Opcode::DbFree: append(out, "db.free", {reg(i.ra), reg(i.rb)}); break;
      case Opcode::DbReadFld:
        append(out, "db.readfld", {reg(i.rd), reg(i.ra), reg(i.rb), imm(i.imm)});
        break;
      case Opcode::DbWriteFld:
        append(out, "db.writefld", {reg(i.rd), reg(i.ra), reg(i.rb), imm(i.imm)});
        break;
      case Opcode::DbMove:
        append(out, "db.move", {reg(i.ra), reg(i.rb), imm(i.imm)});
        break;
      case Opcode::DbTxnBegin: append(out, "db.txnbegin", {reg(i.ra)}); break;
      case Opcode::DbTxnEnd: append(out, "db.txnend", {reg(i.ra)}); break;
      default:
        out += "    .pad 1\n";  // undefined word (padding)
        break;
    }
  }
  return out;
}

}  // namespace wtc::vm
