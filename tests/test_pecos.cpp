#include <gtest/gtest.h>

#include "db/controller_schema.hpp"
#include "pecos/bssc.hpp"
#include "pecos/monitor.hpp"
#include "pecos/plan.hpp"
#include "vm/builder.hpp"
#include "vm/interp.hpp"

namespace wtc::pecos {
namespace {

TEST(Figure7, ValidTargetsPassInvalidFault) {
  using Targets = std::vector<std::uint32_t>;
  // Two-target branch case from the paper's Figure 7.
  EXPECT_TRUE(figure7_valid(10, Targets{10, 20}));
  EXPECT_TRUE(figure7_valid(20, Targets{10, 20}));
  EXPECT_FALSE(figure7_valid(15, Targets{10, 20}));
  // One target (jump) and many targets (return).
  EXPECT_TRUE(figure7_valid(7, Targets{7}));
  EXPECT_FALSE(figure7_valid(8, Targets{7}));
  EXPECT_TRUE(figure7_valid(5, Targets{1, 2, 3, 4, 5, 6}));
  EXPECT_FALSE(figure7_valid(0, Targets{1, 2, 3, 4, 5, 6}));
  EXPECT_FALSE(figure7_valid(0, {}));
}

vm::Program sample_program() {
  vm::ProgramBuilder b;
  b.loadi(1, 0)                  // 0
      .loadi(2, 3)               // 1
      .label("loop")             // 2
      .bge(1, 2, "end")          // 2: branch
      .addi(1, 1, 1)             // 3
      .call("helper")            // 4: call
      .jmp("loop")               // 5: jump
      .label("end")
      .load_label(8, "helper")   // 6
      .icall(8)                  // 7: indirect call
      .halt();                   // 8
  b.label("helper").nop().ret();  // 9, 10: ret
  return std::move(b).build();
}

TEST(Plan, InstrumentsEveryCfi) {
  const vm::Program program = sample_program();
  const Plan plan = Plan::instrument(program);
  EXPECT_EQ(plan.assertion_count(), 5u);  // bge, call, jmp, icall, ret

  const Assertion* branch = plan.assertion_at(2);
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->kind, vm::CfiKind::Branch);
  EXPECT_EQ(branch->valid_targets.size(), 2u);

  const Assertion* ret = plan.assertion_at(10);
  ASSERT_NE(ret, nullptr);
  // Valid return points: after the call (5) and after the icall (8).
  EXPECT_EQ(std::vector<std::uint32_t>(ret->valid_targets.begin(),
                                       ret->valid_targets.end()),
            (std::vector<std::uint32_t>{5, 8}));

  const Assertion* icall = plan.assertion_at(7);
  ASSERT_NE(icall, nullptr);
  EXPECT_EQ(icall->icall_reg, 8);
  EXPECT_TRUE(icall->valid_targets.empty());  // runtime-computed

  EXPECT_EQ(plan.assertion_at(0), nullptr);  // non-CFI site
}

class PecosExecTest : public ::testing::Test {
 protected:
  PecosExecTest()
      : db_(db::make_controller_database()),
        api_(*db_, []() { return sim::Time{0}; }) {
    api_.init(1);
  }

  /// Runs thread 0 until terminal (bounded), returns final state.
  vm::ThreadState run(vm::VmProcess& process) {
    sim::Time now = 0;
    for (int i = 0; i < 10'000; ++i) {
      const auto state = process.thread(0).state();
      if (state != vm::ThreadState::Runnable &&
          state != vm::ThreadState::Sleeping) {
        return state;
      }
      now = std::max<sim::Time>(now + 100, process.thread(0).wake_time());
      process.run_quantum(0, now);
    }
    return process.thread(0).state();
  }

  std::unique_ptr<db::Database> db_;
  db::DbApi api_;
};

TEST_F(PecosExecTest, NoFalsePositivesOnCleanRun) {
  const vm::Program program = sample_program();
  const Plan plan = Plan::instrument(program);
  PecosMonitor monitor(plan);
  vm::VmProcess process(program, api_, common::Rng(1), {});
  process.set_monitor(&monitor);
  process.spawn_thread(0);
  EXPECT_EQ(run(process), vm::ThreadState::Halted);
  EXPECT_EQ(monitor.stats().violations, 0u);
  EXPECT_GT(monitor.stats().checks, 5u);
}

TEST_F(PecosExecTest, DetectsCorruptedJumpTargetPreemptively) {
  const vm::Program pristine = sample_program();
  const Plan plan = Plan::instrument(pristine);
  PecosMonitor monitor(plan);
  vm::VmProcess process(pristine, api_, common::Rng(1), {});
  process.set_monitor(&monitor);
  process.spawn_thread(0);

  // Corrupt the jmp at pc 5 to target the middle of the helper (pc 10):
  // still inside the text segment, so no OS trap would fire — only PECOS
  // can catch this before the jump retires.
  vm::Instr jump = vm::decode(process.live_text()[5]);
  ASSERT_EQ(jump.op, vm::Opcode::Jmp);
  jump.imm = 10;
  process.live_text()[5] = vm::encode(jump);

  EXPECT_EQ(run(process), vm::ThreadState::Trapped);
  EXPECT_EQ(process.thread(0).trap(), vm::Trap::PecosViolation);
  EXPECT_GE(monitor.stats().violations, 1u);
}

TEST_F(PecosExecTest, DetectsOpcodeCorruptionOfJump) {
  const vm::Program pristine = sample_program();
  const Plan plan = Plan::instrument(pristine);
  PecosMonitor monitor(plan);
  vm::VmProcess process(pristine, api_, common::Rng(1), {});
  process.set_monitor(&monitor);
  process.spawn_thread(0);

  // Turn the jmp into a nop: control would fall through into "end", which
  // is not a valid successor of the jump site.
  vm::Instr instr = vm::decode(process.live_text()[5]);
  instr.op = vm::Opcode::Nop;
  process.live_text()[5] = vm::encode(instr);

  EXPECT_EQ(run(process), vm::ThreadState::Trapped);
  EXPECT_EQ(process.thread(0).trap(), vm::Trap::PecosViolation);
}

TEST_F(PecosExecTest, DetectsICallRegisterCorruption) {
  const vm::Program pristine = sample_program();
  const Plan plan = Plan::instrument(pristine);
  PecosMonitor monitor(plan);
  vm::VmProcess process(pristine, api_, common::Rng(1), {});
  process.set_monitor(&monitor);
  process.spawn_thread(0);

  // The icall at pc 7 reads r8; corrupt its register operand to r1 (which
  // holds the loop counter, an in-bounds but wrong "address").
  vm::Instr icall = vm::decode(process.live_text()[7]);
  ASSERT_EQ(icall.op, vm::Opcode::ICall);
  icall.ra = 1;
  process.live_text()[7] = vm::encode(icall);

  EXPECT_EQ(run(process), vm::ThreadState::Trapped);
  EXPECT_EQ(process.thread(0).trap(), vm::Trap::PecosViolation);
}

TEST_F(PecosExecTest, EntryCheckCatchesStrayJumpIntoBlockMiddle) {
  // A non-CFI instruction corrupted INTO a jump has no Assertion Block;
  // the next assertion's block-entry shadow flags the divergence.
  vm::ProgramBuilder b;
  b.loadi(1, 0)            // 0 <- corrupted into jmp 4 (middle of block B)
      .beq(1, 1, "b")      // 1: ends block A
      .nop()               // 2
      .label("b")
      .loadi(2, 1)         // 3: block B leader
      .addi(2, 2, 1)       // 4: middle of block B
      .beq(2, 2, "out")    // 5: assertion inside block B
      .nop()               // 6
      .label("out")
      .halt();             // 7
  const vm::Program pristine = std::move(b).build();
  const Plan plan = Plan::instrument(pristine);
  PecosMonitor monitor(plan);
  vm::VmProcess process(pristine, api_, common::Rng(1), {});
  process.set_monitor(&monitor);
  process.spawn_thread(0);

  process.live_text()[0] = vm::encode({vm::Opcode::Jmp, 0, 0, 0, 4});

  const auto state = run(process);
  EXPECT_EQ(state, vm::ThreadState::Trapped);
  EXPECT_EQ(process.thread(0).trap(), vm::Trap::PecosViolation);
}

TEST_F(PecosExecTest, PostCheckDetectsOneInstructionLate) {
  const vm::Program pristine = sample_program();
  const Plan plan = Plan::instrument(pristine);

  // Same corruption as the preemptive test: jmp 5 -> mid-function pc 10.
  const auto corrupt = [&](vm::VmProcess& process) {
    vm::Instr jump = vm::decode(process.live_text()[5]);
    jump.imm = 10;
    process.live_text()[5] = vm::encode(jump);
  };

  PostCheckMonitor post(plan);
  vm::VmProcess process(pristine, api_, common::Rng(1), {});
  process.set_monitor(&post);
  process.spawn_thread(0);
  corrupt(process);
  const auto state = run(process);

  // The post-checker still detects it, but only after the wrong-path
  // instruction executed. Here the wrong path runs nop;ret with a
  // non-empty stack, so detection (not a crash) lands — one instruction
  // late. With PECOS the violation fires at pc 5; with the post checker
  // the thread has already moved past it.
  EXPECT_EQ(state, vm::ThreadState::Trapped);
  EXPECT_EQ(process.thread(0).trap(), vm::Trap::PecosViolation);
  EXPECT_GT(process.thread(0).instructions_retired(), 0u);
}

TEST_F(PecosExecTest, PostCheckLosesToCrashOnWildJump) {
  // A jump corrupted to an out-of-bounds target: PECOS catches it before
  // it retires; the post checker lets it execute and the OS (PC bounds
  // check) crashes the thread first — exactly the preemptive advantage.
  const vm::Program pristine = sample_program();
  const Plan plan = Plan::instrument(pristine);

  {
    PecosMonitor monitor(plan);
    vm::VmProcess process(pristine, api_, common::Rng(1), {});
    process.set_monitor(&monitor);
    process.spawn_thread(0);
    vm::Instr jump = vm::decode(process.live_text()[5]);
    jump.imm = 100'000;
    process.live_text()[5] = vm::encode(jump);
    run(process);
    EXPECT_EQ(process.thread(0).trap(), vm::Trap::PecosViolation);
  }
  {
    PostCheckMonitor monitor(plan);
    vm::VmProcess process(pristine, api_, common::Rng(1), {});
    process.set_monitor(&monitor);
    process.spawn_thread(0);
    vm::Instr jump = vm::decode(process.live_text()[5]);
    jump.imm = 100'000;
    process.live_text()[5] = vm::encode(jump);
    run(process);
    EXPECT_EQ(process.thread(0).trap(), vm::Trap::PcOutOfBounds);
  }
}

TEST(Bssc, GoldenSignaturesCoverEveryBlock) {
  const vm::Program program = sample_program();
  const BsscPlan plan = BsscPlan::instrument(program);
  const vm::Cfg cfg = vm::Cfg::analyze(program);
  EXPECT_EQ(plan.block_count(), cfg.block_count());
  // Signatures are order-sensitive: swapping two words changes them.
  const std::uint64_t a = BsscPlan::combine(BsscPlan::combine(0, 1), 2);
  const std::uint64_t b = BsscPlan::combine(BsscPlan::combine(0, 2), 1);
  EXPECT_NE(a, b);
}

class BsscExecTest : public PecosExecTest {};

TEST_F(BsscExecTest, NoFalsePositivesOnCleanRun) {
  const vm::Program program = sample_program();
  const BsscPlan plan = BsscPlan::instrument(program);
  BsscMonitor monitor(plan);
  vm::VmProcess process(program, api_, common::Rng(1), {});
  process.set_monitor(&monitor);
  process.spawn_thread(0);
  EXPECT_EQ(run(process), vm::ThreadState::Halted);
  EXPECT_EQ(monitor.violations(), 0u);
  EXPECT_GT(monitor.checks(), 5u);
}

TEST_F(BsscExecTest, DetectsInstructionSubstitutionPecosMisses) {
  // Corrupt a NON-CFI instruction's operand: a pure data error. PECOS is
  // blind to it; BSSC's block signature flags it (after the block ran).
  const vm::Program pristine = sample_program();
  const auto corrupt = [](vm::VmProcess& process) {
    vm::Instr instr = vm::decode(process.live_text()[3]);  // addi r1,r1,1
    ASSERT_EQ(instr.op, vm::Opcode::AddI);
    instr.imm = 2;
    process.live_text()[3] = vm::encode(instr);
  };
  {
    const BsscPlan plan = BsscPlan::instrument(pristine);
    BsscMonitor monitor(plan);
    vm::VmProcess process(pristine, api_, common::Rng(1), {});
    process.set_monitor(&monitor);
    process.spawn_thread(0);
    corrupt(process);
    EXPECT_EQ(run(process), vm::ThreadState::Trapped);
    EXPECT_EQ(process.thread(0).trap(), vm::Trap::PecosViolation);
    EXPECT_GE(monitor.violations(), 1u);
  }
  {
    const Plan plan = Plan::instrument(pristine);
    PecosMonitor monitor(plan);
    vm::VmProcess process(pristine, api_, common::Rng(1), {});
    process.set_monitor(&monitor);
    process.spawn_thread(0);
    corrupt(process);
    EXPECT_EQ(run(process), vm::ThreadState::Halted);  // PECOS never notices
    EXPECT_EQ(monitor.stats().violations, 0u);
  }
}

TEST_F(BsscExecTest, DetectionIsNotPreemptive) {
  // The corrupted instruction (and the rest of its block) execute before
  // the signature check fires.
  const vm::Program pristine = sample_program();
  const BsscPlan plan = BsscPlan::instrument(pristine);
  BsscMonitor monitor(plan);
  vm::VmProcess process(pristine, api_, common::Rng(1), {});
  process.set_monitor(&monitor);
  process.spawn_thread(0);
  vm::Instr instr = vm::decode(process.live_text()[3]);
  instr.imm = 100;
  process.live_text()[3] = vm::encode(instr);
  run(process);
  ASSERT_EQ(process.thread(0).trap(), vm::Trap::PecosViolation);
  // r1 already holds the wrong value: the bad add retired before detection.
  EXPECT_EQ(process.thread(0).reg(1), 100);
}

TEST(TrapPolicy, OnlyPecosViolationsAreGraceful) {
  EXPECT_EQ(classify_trap(vm::Trap::PecosViolation), TrapAction::TerminateThread);
  EXPECT_EQ(classify_trap(vm::Trap::IllegalOpcode), TrapAction::CrashProcess);
  EXPECT_EQ(classify_trap(vm::Trap::PcOutOfBounds), TrapAction::CrashProcess);
  EXPECT_EQ(classify_trap(vm::Trap::DivByZero), TrapAction::CrashProcess);
}

}  // namespace
}  // namespace wtc::pecos
