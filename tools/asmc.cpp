// asmc — the MiniVM assembler as a command-line tool.
//
//   asmc program.asm               assemble; print listing + CFG stats
//   asmc program.asm --pecos       also show the PECOS instrumentation plan
//   asmc program.asm --run [N]     assemble and execute N threads (default 1)
//                                  against a fresh controller database,
//                                  printing the emit trace and final state
//
// Exit codes: 0 ok, 1 assembly error, 2 runtime trap.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "callproc/vm_driver.hpp"
#include "db/controller_schema.hpp"
#include "pecos/plan.hpp"
#include "sim/cpu.hpp"
#include "vm/asm_parser.hpp"
#include "vm/cfg.hpp"

using namespace wtc;

namespace {

int run_program(const vm::Program& program, std::uint32_t threads) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  sim::Cpu cpu;
  auto db = db::make_controller_database();

  callproc::VmDriverConfig config;
  config.threads = threads;
  auto driver = std::make_shared<callproc::VmClientDriver>(
      program, *db, cpu, common::Rng(1), config, nullptr, nullptr);
  node.spawn("asmc", driver);
  while (!driver->finished() && scheduler.now() < 600 * sim::kSecond &&
         scheduler.step()) {
  }

  std::printf("--- emit trace ---\n");
  for (const auto& emit : driver->vmp().emits()) {
    std::printf("  t=%.6fs thread=%u code=%d value=%d\n",
                sim::to_seconds(emit.time), emit.thread, emit.code, emit.value);
  }
  std::printf("--- final thread states ---\n");
  bool trapped = false;
  for (std::uint32_t t = 0; t < driver->vmp().thread_count(); ++t) {
    const auto& thread = driver->vmp().thread(t);
    const char* state = "?";
    switch (thread.state()) {
      case vm::ThreadState::Halted: state = "halted"; break;
      case vm::ThreadState::Trapped: state = "TRAPPED"; break;
      case vm::ThreadState::Terminated: state = "terminated"; break;
      case vm::ThreadState::Runnable: state = "runnable (deadline)"; break;
      case vm::ThreadState::Sleeping: state = "sleeping (deadline)"; break;
    }
    std::printf("  thread %u: %s", t, state);
    if (thread.state() == vm::ThreadState::Trapped) {
      trapped = true;
      std::printf(" [%s at pc %u]",
                  std::string(vm::to_string(thread.trap())).c_str(), thread.pc());
    }
    std::printf("  (%llu instructions)\n",
                static_cast<unsigned long long>(thread.instructions_retired()));
  }
  return trapped ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <file.asm> [--pecos] [--run [threads]]\n",
                 argv[0]);
    return 64;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", argv[1]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  vm::Program program;
  try {
    program = vm::assemble(buffer.str());
  } catch (const vm::AsmError& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }

  bool show_pecos = false;
  bool run = false;
  std::uint32_t threads = 1;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--pecos") == 0) {
      show_pecos = true;
    } else if (std::strcmp(argv[i], "--run") == 0) {
      run = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        threads = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      }
    }
  }

  const pecos::Plan plan = pecos::Plan::instrument(program);
  const vm::Cfg& cfg = plan.cfg();
  std::printf("%s: %u instructions, %zu basic blocks, %zu CFIs, %u data words\n\n",
              argv[1], program.size(), cfg.block_count(), cfg.cfis().size(),
              program.data_words);
  if (show_pecos) {
    std::printf("PECOS plan: %zu Assertion Blocks, %zu return points\n\n",
                plan.assertion_count(), plan.return_points().size());
  }
  std::printf("%s", vm::disassemble(program).c_str());

  if (run) {
    std::printf("\nrunning %u thread(s)...\n", threads);
    return run_program(program, threads);
  }
  return 0;
}
