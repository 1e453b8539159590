// Ablation A2: event-triggered audit vs periodic-only audit. §4.3 adds an
// event trigger on every database write; §5.2 shows it is also the main
// source of API overhead (DBwrite_rec +45%). This bench quantifies the
// trade: with event triggering enabled, how much does detection latency
// drop — and how much call-setup time does the extra checking cost?
//
// Flags: --runs=N (default 10)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 10);
  bench::campaign_init(argc, argv);

  common::TablePrinter table({"Configuration", "Caught %", "Escaped %",
                              "Detection latency (s)", "Setup time (ms)"});
  for (const bool event_triggered : {false, true}) {
    auto params = bench::table2_params();
    params.audits_enabled = true;
    params.audit.event_triggered = event_triggered;
    params.seed = 0xE7A2;
    const auto result = experiments::run_audit_series(params, runs);
    table.add_row({event_triggered ? "Periodic + event-triggered" : "Periodic only",
                   common::fmt(common::percent(result.caught, result.injected), 1) +
                       "%",
                   common::fmt(common::percent(result.escaped, result.injected), 1) +
                       "%",
                   common::fmt(result.detection_latency_s.mean(), 2),
                   common::fmt(result.setup_ms.mean(), 0)});
  }
  std::printf("=== Ablation A2: event-triggered audit (%zu runs per arm) "
              "===\n\n%s\n",
              runs, table.render().c_str());
  std::printf("Expected: event triggering shortens detection latency for "
              "errors near written records at some setup-time cost; §5.2 notes "
              "periodic-only audit eliminates the notification overhead.\n");
  return 0;
}
