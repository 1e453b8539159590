// call_center: the full dependable call-processing environment (Figure 1),
// end to end, with live fault injection.
//
// One simulated node runs: the manager (heartbeating the audit process),
// the audit process (periodic + progress-indicator elements), a 16-thread
// call-processing client on the instrumented DB API, and a bit-flip error
// injector attacking the database. A reporter prints the state of the
// world every simulated minute.
//
//   ./build/examples/call_center [seconds=300]
#include <cstdio>
#include <cstdlib>

#include "experiments/controller_stack.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const long seconds = argc > 1 ? std::strtol(argv[1], nullptr, 10) : 300;

  experiments::ControllerStack stack(db::make_controller_database(), 2001);
  sim::Scheduler& scheduler = stack.scheduler();
  stack.add_client_directory();

  // Manager supervising the audit process by heartbeat (§4.1).
  audit::AuditProcessConfig audit_cfg;
  audit_cfg.period = 10 * static_cast<sim::Duration>(sim::kSecond);
  audit_cfg.event_triggered = true;
  stack.deploy_audit(audit_cfg, experiments::Supervision::Manager);

  // The call-processing client (Table-2 load) on the instrumented
  // ("modified") API.
  const auto client = stack.spawn_native_client(stack.audit_sink());

  // Random bit errors into the database, one every 10 s.
  inject::DbInjectorConfig inj_cfg;
  inj_cfg.inter_arrival = 10 * static_cast<sim::Duration>(sim::kSecond);
  stack.spawn_db_injector(inj_cfg);

  // Reporter: one status line per simulated minute.
  std::printf("%6s %9s %9s %7s %8s %8s %8s %9s\n", "t(s)", "calls", "complete",
              "dropped", "injected", "caught", "escaped", "setup ms");
  std::function<void()> report = [&]() {
    const auto s = stack.oracle().summary();
    const auto& cs = client->stats();
    std::printf("%6.0f %9llu %9llu %7llu %8zu %8zu %8zu %9.0f\n",
                sim::to_seconds(scheduler.now()),
                static_cast<unsigned long long>(cs.calls_attempted),
                static_cast<unsigned long long>(cs.calls_completed),
                static_cast<unsigned long long>(cs.calls_dropped), s.injected,
                s.caught, s.escaped, cs.setup_time_ms.mean());
    scheduler.schedule_after(60 * sim::kSecond, report);
  };
  scheduler.schedule_after(60 * sim::kSecond, report);

  scheduler.run_until(static_cast<sim::Time>(seconds) * sim::kSecond);

  const auto s = stack.oracle().summary();
  std::printf(
      "\nafter %ld simulated seconds: %zu errors injected, %zu caught by "
      "audits (%.0f%%), %zu escaped to the application (%.0f%%), %zu had no "
      "effect.\n",
      seconds, s.injected, s.caught, common::percent(s.caught, s.injected),
      s.escaped, common::percent(s.escaped, s.injected), s.no_effect());
  std::printf("audit process restarts by manager: %u\n", stack.restarts());
  std::printf("client: %llu calls attempted, %llu completed, %llu dropped by "
              "recovery, %llu golden-compare mismatches\n",
              static_cast<unsigned long long>(client->stats().calls_attempted),
              static_cast<unsigned long long>(client->stats().calls_completed),
              static_cast<unsigned long long>(client->stats().calls_dropped),
              static_cast<unsigned long long>(client->stats().golden_mismatches));
  return 0;
}
