#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"
#include "vm/builder.hpp"
#include "vm/cfg.hpp"
#include "vm/interp.hpp"
#include "vm/program.hpp"

namespace wtc::vm {
namespace {

TEST(Encoding, RoundTripsAllFields) {
  const Instr instr{Opcode::Beq, 3, 14, 7, -12345};
  const Instr back = decode(encode(instr));
  EXPECT_EQ(back.op, instr.op);
  EXPECT_EQ(back.rd, instr.rd);
  EXPECT_EQ(back.ra, instr.ra);
  EXPECT_EQ(back.rb, instr.rb);
  EXPECT_EQ(back.imm, instr.imm);
}

class EncodingRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncodingRoundTrip, DecodeEncodeIsIdentity) {
  // Property: decode/encode round-trips every 64-bit word exactly, so a
  // bit flip in an encoded instruction is a bit flip in its decoded form.
  const std::uint64_t word = GetParam();
  EXPECT_EQ(encode(decode(word)), word);
}

INSTANTIATE_TEST_SUITE_P(RandomWords, EncodingRoundTrip, ::testing::ValuesIn([] {
                           std::vector<std::uint64_t> words;
                           common::Rng rng(2024);
                           for (int i = 0; i < 50; ++i) {
                             words.push_back(rng.next());
                           }
                           return words;
                         }()));

TEST(Opcodes, CfiClassification) {
  EXPECT_TRUE(is_cfi(Opcode::Jmp));
  EXPECT_TRUE(is_cfi(Opcode::Ret));
  EXPECT_TRUE(is_cfi(Opcode::ICall));
  EXPECT_FALSE(is_cfi(Opcode::Add));
  EXPECT_FALSE(is_cfi(Opcode::DbWriteFld));
  EXPECT_TRUE(is_branch(Opcode::Beq));
  EXPECT_FALSE(is_branch(Opcode::Jmp));
}

TEST(Opcodes, UndefinedOpcodesRejected) {
  EXPECT_TRUE(opcode_defined(static_cast<std::uint8_t>(Opcode::Halt)));
  EXPECT_FALSE(opcode_defined(19));
  EXPECT_FALSE(opcode_defined(23));
  EXPECT_FALSE(opcode_defined(200));
}

TEST(Builder, ResolvesForwardAndBackwardLabels) {
  ProgramBuilder b;
  b.jmp("end");
  b.label("middle").nop();
  b.label("end").jmp("middle");
  const Program program = std::move(b).build();
  EXPECT_EQ(decode(program.text[0]).imm, 2);  // end
  EXPECT_EQ(decode(program.text[2]).imm, 1);  // middle
}

TEST(Builder, ThrowsOnUndefinedAndDuplicateLabels) {
  {
    ProgramBuilder b;
    b.jmp("nowhere");
    EXPECT_THROW(std::move(b).build(), std::logic_error);
  }
  {
    ProgramBuilder b;
    b.label("x");
    EXPECT_THROW(b.label("x"), std::logic_error);
  }
}

/// Fixture providing a database-backed VmProcess.
class InterpTest : public ::testing::Test {
 protected:
  InterpTest()
      : db_(db::make_controller_database()),
        ids_(db::resolve_controller_ids(db_->schema())),
        api_(*db_, []() { return sim::Time{0}; }) {
    api_.init(1);
  }

  VmProcess make(Program program, VmConfig config = {}) {
    return VmProcess(std::move(program), api_, common::Rng(7), config);
  }

  /// Runs thread 0 to a terminal state (bounded).
  static void run_to_end(VmProcess& process, std::uint32_t thread = 0) {
    sim::Time now = 0;
    for (int i = 0; i < 10'000; ++i) {
      if (process.thread(thread).state() != ThreadState::Runnable &&
          process.thread(thread).state() != ThreadState::Sleeping) {
        return;
      }
      now = std::max<sim::Time>(now + 100, process.thread(thread).wake_time());
      process.run_quantum(thread, now);
    }
    FAIL() << "program did not terminate";
  }

  std::unique_ptr<db::Database> db_;
  db::ControllerIds ids_;
  db::DbApi api_;
};

TEST_F(InterpTest, ArithmeticAndMemory) {
  ProgramBuilder b;
  b.loadi(1, 21)
      .loadi(2, 2)
      .mul(3, 1, 2)  // r3 = 42
      .st(0, 5, 3)   // data[5] = 42
      .ld(4, 0, 5)   // r4 = 42
      .addi(4, 4, -2)
      .emit(99, 4)
      .halt();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.thread(0).state(), ThreadState::Halted);
  ASSERT_EQ(process.emits().size(), 1u);
  EXPECT_EQ(process.emits()[0].code, 99);
  EXPECT_EQ(process.emits()[0].value, 40);
}

TEST_F(InterpTest, LoopAndBranches) {
  // Sum 1..10 via a loop.
  ProgramBuilder b;
  b.loadi(1, 0)   // sum
      .loadi(2, 1)   // i
      .loadi(3, 11)  // bound
      .label("loop")
      .bge(2, 3, "done")
      .add(1, 1, 2)
      .addi(2, 2, 1)
      .jmp("loop")
      .label("done")
      .emit(1, 1)
      .halt();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.emits()[0].value, 55);
}

TEST_F(InterpTest, CallRetAndICall) {
  ProgramBuilder b;
  b.load_label(8, "double_it")
      .loadi(1, 5)
      .icall(8)     // r1 = 10
      .call("inc")  // r1 = 11
      .emit(7, 1)
      .halt();
  b.label("double_it").add(1, 1, 1).ret();
  b.label("inc").addi(1, 1, 1).ret();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.emits()[0].value, 11);
}

TEST_F(InterpTest, TrapIllegalOpcode) {
  Program program;
  program.text = {encode({Opcode::Nop}), 0x00000000000000FFull};
  auto process = make(std::move(program));
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.thread(0).state(), ThreadState::Trapped);
  EXPECT_EQ(process.thread(0).trap(), Trap::IllegalOpcode);
}

TEST_F(InterpTest, TrapIllegalOperand) {
  Program program;
  program.text = {encode({Opcode::Mov, 3, 99, 0, 0})};
  auto process = make(std::move(program));
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.thread(0).trap(), Trap::IllegalOperand);
}

TEST_F(InterpTest, TrapPcOutOfBounds) {
  ProgramBuilder b;
  b.loadi(1, 0).jmp("self_modifying_target").label("self_modifying_target").halt();
  Program program = std::move(b).build();
  // Corrupt the jump to point far outside.
  Instr jump = decode(program.text[1]);
  jump.imm = 100000;
  program.text[1] = encode(jump);
  auto process = make(std::move(program));
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.thread(0).trap(), Trap::PcOutOfBounds);
}

TEST_F(InterpTest, TrapMemOutOfBoundsAndDivByZero) {
  {
    ProgramBuilder b;
    b.loadi(1, 1'000'000).ld(2, 1, 0).halt();
    auto process = make(std::move(b).build());
    process.spawn_thread(0);
    run_to_end(process);
    EXPECT_EQ(process.thread(0).trap(), Trap::MemOutOfBounds);
  }
  {
    ProgramBuilder b;
    b.loadi(1, 5).loadi(2, 0).div(3, 1, 2).halt();
    auto process = make(std::move(b).build());
    process.spawn_thread(0);
    run_to_end(process);
    EXPECT_EQ(process.thread(0).trap(), Trap::DivByZero);
  }
}

TEST_F(InterpTest, TrapRetUnderflow) {
  ProgramBuilder b;
  b.ret();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.thread(0).trap(), Trap::RetUnderflow);
}

TEST_F(InterpTest, TrapStackOverflow) {
  ProgramBuilder b;
  b.label("recurse").call("recurse");
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.thread(0).trap(), Trap::StackOverflow);
}

TEST_F(InterpTest, SleepSuspendsUntilWake) {
  ProgramBuilder b;
  b.loadi(1, 500).sleepr(1).emit(1, 1).halt();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  process.run_quantum(0, 0);
  EXPECT_EQ(process.thread(0).state(), ThreadState::Sleeping);
  EXPECT_EQ(process.thread(0).wake_time(), 500u);
  process.run_quantum(0, 100);  // too early: still sleeping
  EXPECT_EQ(process.thread(0).state(), ThreadState::Sleeping);
  process.run_quantum(0, 500);
  EXPECT_EQ(process.thread(0).state(), ThreadState::Halted);
}

TEST_F(InterpTest, QuantumBoundsInstructionCount) {
  ProgramBuilder b;
  b.label("spin").jmp("spin");
  auto process = make(std::move(b).build(), VmConfig{.quantum = 10, .instr_cost = 2});
  process.spawn_thread(0);
  const auto result = process.run_quantum(0, 0);
  EXPECT_EQ(result.instructions, 10u);
  EXPECT_EQ(result.time_cost, 20);
  EXPECT_EQ(process.thread(0).state(), ThreadState::Runnable);
}

TEST_F(InterpTest, DbOpsDriveTheRealDatabase) {
  ProgramBuilder b;
  const auto P = static_cast<std::int32_t>(ids_.process);
  b.loadi(1, P)
      .loadi(2, static_cast<std::int32_t>(db::kGroupActiveCalls))
      .db_alloc(3, 1, 2)           // r3 = record
      .loadi(4, 42)
      .db_write_fld(4, 1, 3, ids_.p_task_token)
      .db_read_fld(5, 1, 3, ids_.p_task_token)
      .emit(1, 5)
      .db_free(1, 3)
      .halt();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.thread(0).state(), ThreadState::Halted);
  ASSERT_EQ(process.emits().size(), 1u);
  EXPECT_EQ(process.emits()[0].value, 42);
  // Record freed again.
  EXPECT_EQ(db::direct::read_header(*db_, ids_.process, 0).status, db::kStatusFree);
}

TEST_F(InterpTest, DbStatusRegisterReportsFailures) {
  ProgramBuilder b;
  b.loadi(1, 999)  // no such table
      .loadi(2, 0)
      .db_read_fld(3, 1, 2, 0)
      .emit(1, kDbStatusReg)
      .halt();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  run_to_end(process);
  EXPECT_EQ(process.emits()[0].value,
            static_cast<std::int32_t>(db::Status::NoSuchTable));
}

TEST_F(InterpTest, BreakpointFiresOnceBeforeExecution) {
  ProgramBuilder b;
  b.loadi(1, 1).loadi(1, 2).loadi(1, 3).halt();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  int hits = 0;
  process.set_breakpoint(1, [&](std::uint32_t thread) {
    ++hits;
    EXPECT_EQ(thread, 0u);
  });
  run_to_end(process);
  EXPECT_EQ(hits, 1);
  EXPECT_FALSE(process.breakpoint_armed());
}

TEST_F(InterpTest, FetchRedirectModelsAddressLineError) {
  ProgramBuilder b;
  b.loadi(1, 10)   // pc 0
      .loadi(1, 20)   // pc 1
      .emit(1, 1)     // pc 2
      .halt();        // pc 3
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  process.arm_fetch_redirect(1, 1);  // pc 1 fetches text[0] instead
  process.set_fetch_watch(1);
  run_to_end(process);
  EXPECT_EQ(process.emits()[0].value, 10);  // the second loadi never ran
  EXPECT_EQ(process.fetch_watch_hits(), 1u);
}

TEST_F(InterpTest, ArithmeticEdgeCases) {
  // INT_MIN / -1 is defined (wraps through i64 then truncates), shifts
  // mask to 5 bits, and mul wraps without UB.
  ProgramBuilder b;
  b.loadi(1, INT32_MIN)
      .loadi(2, -1)
      .div(3, 1, 2)       // r3 = INT_MIN (truncated)
      .loadi(4, 1)
      .shl(5, 4, 35)      // shift 35 & 31 = 3 -> 8
      .loadi(6, -8)
      .shr(7, 6, 1)       // logical shift of 0xFFFFFFF8
      .mul(8, 1, 1)       // INT_MIN * INT_MIN wraps
      .emit(1, 3)
      .emit(2, 5)
      .emit(3, 7)
      .halt();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  run_to_end(process);
  ASSERT_EQ(process.thread(0).state(), ThreadState::Halted);
  EXPECT_EQ(process.emits()[0].value, INT32_MIN);
  EXPECT_EQ(process.emits()[1].value, 8);
  EXPECT_EQ(process.emits()[2].value, 0x7FFFFFFC);
}

TEST_F(InterpTest, SleepRClampsNegativeDurations) {
  ProgramBuilder b;
  b.loadi(1, -500).sleepr(1).halt();
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  process.run_quantum(0, 1000);
  // Negative sleep clamps to zero: wake time is "now".
  EXPECT_EQ(process.thread(0).state(), ThreadState::Sleeping);
  EXPECT_LE(process.thread(0).wake_time(), 1000u + 100);
  process.run_quantum(0, 1100);
  EXPECT_EQ(process.thread(0).state(), ThreadState::Halted);
}

TEST_F(InterpTest, TerminateThreadIsTerminalExceptForHalted) {
  ProgramBuilder b;
  b.label("spin").jmp("spin");
  auto process = make(std::move(b).build());
  process.spawn_thread(0);
  process.run_quantum(0, 0);
  process.terminate_thread(0);
  EXPECT_EQ(process.thread(0).state(), ThreadState::Terminated);
  EXPECT_FALSE(process.any_live(UINT64_MAX));
}

TEST(Cfg, FindsLeadersAndCfiKinds) {
  ProgramBuilder b;
  b.loadi(1, 0)                     // 0
      .beq(1, 1, "target")          // 1: branch
      .nop()                        // 2 (leader: after CFI)
      .label("target")
      .call("fn")                   // 3 (leader: branch target)
      .halt();                      // 4 (leader: after call)
  b.label("fn").load_label(2, "fn").icall(2).ret();  // 5, 6, 7
  const Program program = std::move(b).build();
  const Cfg cfg = Cfg::analyze(program);

  EXPECT_TRUE(cfg.is_leader(0));
  EXPECT_TRUE(cfg.is_leader(2));
  EXPECT_TRUE(cfg.is_leader(3));
  EXPECT_TRUE(cfg.is_leader(4));
  EXPECT_TRUE(cfg.is_leader(5));  // call target
  EXPECT_FALSE(cfg.is_leader(1));

  const CfiInfo* branch = cfg.cfi_at(1);
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->kind, CfiKind::Branch);
  EXPECT_EQ(std::vector<std::uint32_t>(branch->static_targets().begin(),
                                       branch->static_targets().end()),
            (std::vector<std::uint32_t>{3, 2}));
  EXPECT_EQ(branch->block_leader, 0u);

  const CfiInfo* call = cfg.cfi_at(3);
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->kind, CfiKind::Call);

  const CfiInfo* icall = cfg.cfi_at(6);
  ASSERT_NE(icall, nullptr);
  EXPECT_EQ(icall->kind, CfiKind::IndirectCall);
  EXPECT_EQ(icall->icall_reg, 2);

  const CfiInfo* ret = cfg.cfi_at(7);
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(ret->kind, CfiKind::Ret);
}

TEST(Cfg, LeaderOfMapsInteriorPcs) {
  ProgramBuilder b;
  b.nop().nop().jmp("end").nop().label("end").halt();
  const Cfg cfg = Cfg::analyze(std::move(b).build());
  EXPECT_EQ(cfg.leader_of(0), 0u);
  EXPECT_EQ(cfg.leader_of(1), 0u);
  EXPECT_EQ(cfg.leader_of(2), 0u);
  EXPECT_EQ(cfg.leader_of(3), 3u);
  EXPECT_EQ(cfg.leader_of(4), 4u);
}

TEST(Disassembler, ProducesReadableText) {
  ProgramBuilder b;
  b.loadi(1, 5).jmp("x").label("x").halt();
  const Program program = std::move(b).build();
  const std::string text = disassemble(program);
  EXPECT_NE(text.find("loadi"), std::string::npos);
  EXPECT_NE(text.find("jmp"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
  EXPECT_NE(disassemble(0xFFull).find("illegal"), std::string::npos);
}

}  // namespace
}  // namespace wtc::vm
