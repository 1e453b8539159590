#include <gtest/gtest.h>

#include <unordered_set>

#include "callproc/vm_driver.hpp"
#include "callproc/vm_program.hpp"
#include "db/direct.hpp"
#include "pecos/monitor.hpp"
#include "pecos/plan.hpp"
#include "sim/cpu.hpp"
#include "vm/cfg.hpp"

namespace wtc::callproc {
namespace {

struct Env {
  Env() : node(scheduler), db(db::make_controller_database()) {
    ids = db::resolve_controller_ids(db->schema());
  }

  VmProgramParams program_params() const {
    VmProgramParams params;
    params.ids = ids;
    params.num_subscribers =
        static_cast<std::int32_t>(db->schema().tables[ids.subscriber].num_records);
    params.calls_per_thread = 2;
    return params;
  }

  /// Runs until the driver finishes or `deadline` virtual time passes.
  void run(VmClientDriver& driver, sim::Time deadline = 120 * sim::kSecond) {
    while (!driver.finished() && scheduler.now() < deadline && scheduler.step()) {
    }
  }

  sim::Scheduler scheduler;
  sim::Node node;
  sim::Cpu cpu;
  std::unique_ptr<db::Database> db;
  db::ControllerIds ids;
};

TEST(VmProgram, BuildsWithRichControlFlow) {
  Env env;
  const vm::Program program = build_call_program(env.program_params());
  EXPECT_GT(program.size(), 100u);

  const vm::Cfg cfg = vm::Cfg::analyze(program);
  EXPECT_GT(cfg.block_count(), 30u);
  // All CFI kinds present: branch, jump, call, icall, ret.
  bool has_branch = false, has_jump = false, has_call = false, has_icall = false,
       has_ret = false;
  for (const vm::CfiInfo& info : cfg.cfis()) {
    switch (info.kind) {
      case vm::CfiKind::Branch: has_branch = true; break;
      case vm::CfiKind::Jump: has_jump = true; break;
      case vm::CfiKind::Call: has_call = true; break;
      case vm::CfiKind::IndirectCall: has_icall = true; break;
      case vm::CfiKind::Ret: has_ret = true; break;
    }
  }
  EXPECT_TRUE(has_branch);
  EXPECT_TRUE(has_jump);
  EXPECT_TRUE(has_call);
  EXPECT_TRUE(has_icall);
  EXPECT_TRUE(has_ret);
}

TEST(VmClient, ErrorFreeRunSucceedsOnAllThreads) {
  Env env;
  const vm::Program program = build_call_program(env.program_params());
  VmDriverConfig config;
  config.threads = 16;
  auto driver = std::make_shared<VmClientDriver>(program, *env.db, env.cpu,
                                                 common::Rng(1), config, nullptr,
                                                 nullptr);
  env.node.spawn("client", driver);
  env.run(*driver);

  ASSERT_TRUE(driver->finished());
  EXPECT_FALSE(driver->crashed());
  EXPECT_EQ(driver->hung_threads(), 0u);

  std::unordered_set<std::uint32_t> succeeded;
  std::size_t mismatches = 0, failed_calls = 0, done_calls = 0;
  for (const auto& emit : driver->vmp().emits()) {
    if (emit.code == kEmitAllDone) succeeded.insert(emit.thread);
    if (emit.code == kEmitMismatch) ++mismatches;
    if (emit.code == kEmitCallFailed) ++failed_calls;
    if (emit.code == kEmitCallDone) ++done_calls;
  }
  EXPECT_EQ(succeeded.size(), 16u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(failed_calls, 0u);
  EXPECT_EQ(done_calls, 32u);  // 16 threads x 2 calls
}

TEST(VmClient, ErrorFreeRunWithPecosHasNoViolations) {
  Env env;
  const vm::Program program = build_call_program(env.program_params());
  const pecos::Plan plan = pecos::Plan::instrument(program);
  pecos::PecosMonitor monitor(plan);

  VmDriverConfig config;
  config.threads = 16;
  auto driver = std::make_shared<VmClientDriver>(program, *env.db, env.cpu,
                                                 common::Rng(2), config, nullptr,
                                                 &monitor);
  env.node.spawn("client", driver);
  env.run(*driver);

  ASSERT_TRUE(driver->finished());
  EXPECT_FALSE(driver->crashed());
  EXPECT_EQ(driver->pecos_detections(), 0u);
  EXPECT_EQ(monitor.stats().violations, 0u);
  EXPECT_GT(monitor.stats().checks, 1000u);
}

TEST(VmClient, ErrorFreeRunReleasesAllRecords) {
  Env env;
  const vm::Program program = build_call_program(env.program_params());
  auto driver = std::make_shared<VmClientDriver>(program, *env.db, env.cpu,
                                                 common::Rng(3), VmDriverConfig{},
                                                 nullptr, nullptr);
  env.node.spawn("client", driver);
  env.run(*driver);
  ASSERT_TRUE(driver->finished());

  for (const db::TableId t :
       {env.ids.process, env.ids.connection, env.ids.resource}) {
    const auto& spec = env.db->schema().tables[t];
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      EXPECT_EQ(db::direct::read_header(*env.db, t, r).status, db::kStatusFree)
          << "table " << t << " record " << r;
    }
  }
  // All transaction locks released.
  EXPECT_TRUE(env.db->held_locks().empty());
}

TEST(VmClient, CrashTerminatesAllThreadsAndKeepsLocks) {
  Env env;
  vm::Program program = build_call_program(env.program_params());
  auto driver = std::make_shared<VmClientDriver>(program, *env.db, env.cpu,
                                                 common::Rng(4), VmDriverConfig{},
                                                 nullptr, nullptr);
  env.node.spawn("client", driver);
  // Corrupt an instruction inside the setup path into an illegal opcode so
  // the first thread through crashes the process mid-transaction.
  env.scheduler.run_until(sim::kMillisecond);
  // Find a db.txnbegin and plant garbage right after it.
  auto& text = driver->vmp().live_text();
  for (std::uint32_t pc = 0; pc < text.size(); ++pc) {
    if (vm::decode(text[pc]).op == vm::Opcode::DbAlloc) {
      text[pc] = 0xFFull;  // illegal opcode
      break;
    }
  }
  env.run(*driver);

  EXPECT_TRUE(driver->crashed());
  ASSERT_TRUE(driver->crash_trap().has_value());
  EXPECT_EQ(*driver->crash_trap(), vm::Trap::IllegalOpcode);
  EXPECT_TRUE(driver->crash_time().has_value());
  // The crash left transaction locks behind (progress-indicator fodder).
  EXPECT_FALSE(env.db->held_locks().empty());
}

TEST(VmClient, AuditTerminationDropsOneThread) {
  Env env;
  const vm::Program program = build_call_program(env.program_params());
  auto driver = std::make_shared<VmClientDriver>(program, *env.db, env.cpu,
                                                 common::Rng(5), VmDriverConfig{},
                                                 nullptr, nullptr);
  env.node.spawn("client", driver);
  env.scheduler.run_until(50 * sim::kMillisecond);
  driver->control_terminate_thread(3);
  env.run(*driver);

  EXPECT_EQ(driver->terminated_by_audit(), 1u);
  std::unordered_set<std::uint32_t> succeeded;
  for (const auto& emit : driver->vmp().emits()) {
    if (emit.code == kEmitAllDone) {
      succeeded.insert(emit.thread);
    }
  }
  EXPECT_EQ(succeeded.size(), 15u);  // all but the terminated thread
  EXPECT_FALSE(succeeded.contains(3));
}

TEST(VmClient, LivelockIsFlaggedAsHang) {
  Env env;
  vm::Program program = build_call_program(env.program_params());
  VmDriverConfig config;
  config.threads = 2;
  auto driver = std::make_shared<VmClientDriver>(program, *env.db, env.cpu,
                                                 common::Rng(6), config, nullptr,
                                                 nullptr);
  env.node.spawn("client", driver);
  env.scheduler.run_until(sim::kMillisecond);
  // Turn the main loop's back-edge into a self-loop: infinite spin.
  auto& text = driver->vmp().live_text();
  for (std::uint32_t pc = 0; pc < text.size(); ++pc) {
    const auto instr = vm::decode(text[pc]);
    if (instr.op == vm::Opcode::Jmp) {
      vm::Instr self = instr;
      self.imm = static_cast<std::int32_t>(pc);
      text[pc] = vm::encode(self);
      break;
    }
  }
  env.run(*driver);
  EXPECT_GT(driver->hung_threads(), 0u);
  EXPECT_TRUE(driver->first_hang_time().has_value());
}

}  // namespace
}  // namespace wtc::callproc
