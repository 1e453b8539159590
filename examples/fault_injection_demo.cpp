// fault_injection_demo: PECOS up close.
//
// Builds the MiniVM call-processing program, shows a slice of its
// disassembly and its CFG statistics, then injects the same control-flow
// error twice — once with PECOS instrumentation, once without — and shows
// the preemptive detection versus the raw outcome. Finally runs one full
// injection campaign step with the Table-6 error models.
//
//   ./build/examples/fault_injection_demo
#include <cstdio>

#include "callproc/vm_driver.hpp"
#include "callproc/vm_program.hpp"
#include "db/controller_schema.hpp"
#include "inject/client_injector.hpp"
#include "pecos/monitor.hpp"
#include "sim/cpu.hpp"

using namespace wtc;

namespace {

constexpr const char* kNeverActivated = "error never activated";

/// Runs one 8-thread client with a planted CFI corruption; returns a
/// human-readable outcome.
const char* run_once(bool with_pecos, std::uint64_t seed) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  sim::Cpu cpu;
  auto db = db::make_controller_database();

  callproc::VmProgramParams params;
  params.ids = db::resolve_controller_ids(db->schema());
  params.calls_per_thread = 1;
  const callproc::ProgramImage& image = callproc::call_program_image(params);
  pecos::PecosMonitor monitor(image.plan);

  callproc::VmDriverConfig cfg;
  cfg.threads = 8;
  auto driver = std::make_shared<callproc::VmClientDriver>(
      image.program, *db, cpu, common::Rng(seed), cfg, nullptr,
      with_pecos ? &monitor : nullptr);
  node.spawn("client", driver);

  inject::ClientInjectorConfig inj;
  inj.target = inject::InjectTarget::DirectedCFI;
  inj.model = inject::ErrorModel::DATAOF;
  inject::ClientErrorInjector injector(driver->vmp(), image.cfg(), scheduler,
                                       common::Rng(seed * 31), inj);
  injector.arm();

  while (!driver->finished() && scheduler.now() < 60 * sim::kSecond &&
         scheduler.step()) {
  }
  if (!injector.activated()) {
    return kNeverActivated;
  }
  if (driver->pecos_detections() > 0) {
    return "PECOS detected it preemptively; offending thread terminated, "
           "the other calls completed";
  }
  if (driver->crashed()) {
    return "client process CRASHED (system detection) — every call lost";
  }
  if (driver->hung_threads() > 0) {
    return "client hung";
  }
  return "error was benign this time";
}

}  // namespace

int main() {
  auto db = db::make_controller_database();
  callproc::VmProgramParams params;
  params.ids = db::resolve_controller_ids(db->schema());
  const callproc::ProgramImage& image = callproc::call_program_image(params);
  const vm::Program& program = image.program;
  const pecos::Plan& plan = image.plan;

  std::printf("call-processing client program: %u instructions, %zu basic "
              "blocks, %zu CFIs instrumented with Assertion Blocks\n\n",
              program.size(), image.cfg().block_count(), plan.assertion_count());

  std::printf("first instructions of the program:\n");
  for (std::uint32_t pc = 0; pc < 12 && pc < program.size(); ++pc) {
    const bool assertion = plan.assertion_at(pc) != nullptr;
    std::printf("  %3u: %-40s %s\n", pc,
                vm::disassemble(program.text[pc]).c_str(),
                assertion ? "<- Assertion Block" : "");
  }

  // The program also holds cold feature handlers the basic calls never
  // run; a seed whose error lands there never activates, so skip it.
  std::printf("\ninjecting a DATAOF error (operand bit flip) into a control "
              "flow instruction the calls execute, 5 trials:\n");
  int trials = 0;
  for (std::uint64_t seed = 1; trials < 5 && seed <= 100; ++seed) {
    const char* without = run_once(false, seed);
    if (without == kNeverActivated) {
      continue;
    }
    ++trials;
    std::printf("  trial %d (seed %llu)\n", trials,
                static_cast<unsigned long long>(seed));
    std::printf("    without PECOS: %s\n", without);
    std::printf("    with PECOS:    %s\n", run_once(true, seed));
  }
  return 0;
}
