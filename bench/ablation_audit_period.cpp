// Ablation A4: audit-period sensitivity. Under Table 4 the paper remarks
// that "more frequent invocation of audit is needed to reduce the number
// of errors that escaped due to timing" — and §5.2/Table 3 show the audits
// are not free. This bench sweeps the periodic-audit interval and reports
// the escape rate, detection latency, and the call-setup-time cost,
// exposing the frequency/overhead trade-off.
//
// Flags: --runs=N (default 8)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 8);
  bench::campaign_init(argc, argv);

  common::TablePrinter table({"Audit period (s)", "Caught %", "Escaped %",
                              "Detection latency (s)", "Setup time (ms)"});
  for (const int period : {2, 5, 10, 20, 40}) {
    auto params = bench::table2_params();
    params.audits_enabled = true;
    params.audit.period = period * static_cast<sim::Duration>(sim::kSecond);
    params.seed = 0xA0D1 + static_cast<std::uint64_t>(period);
    const auto result = experiments::run_audit_series(params, runs);
    table.add_row({std::to_string(period),
                   common::fmt(common::percent(result.caught, result.injected), 1) +
                       "%",
                   common::fmt(common::percent(result.escaped, result.injected), 1) +
                       "%",
                   common::fmt(result.detection_latency_s.mean(), 2),
                   common::fmt(result.setup_ms.mean(), 0)});
  }
  std::printf("=== Ablation A4: audit period sensitivity (%zu runs per point) "
              "===\n\n%s\n",
              runs, table.render().c_str());
  std::printf("Expected: shorter periods cut escapes and latency but raise the "
              "audit CPU share (higher setup time); longer periods do the "
              "reverse — the paper picked 10 s.\n");
  return 0;
}
