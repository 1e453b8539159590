// Reproduces Table 3: "Comparison of Running Client Process with and
// without Audits using a 20-second Fault/Error Inter-Arrival Time".
//
// 30 runs of 2000 simulated seconds each (Table 2 parameters); random bit
// errors injected into the database every 20 s; reports how many errors
// escaped to the application, were caught by the audits, or had no
// effect — plus the average call setup time with and without audits.
//
// Flags: --runs=N (default 30)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 30);
  bench::campaign_init(argc, argv);

  auto params = bench::table2_params();
  params.audits_enabled = false;
  const auto without = experiments::run_audit_series(params, runs);
  params.audits_enabled = true;
  const auto with = experiments::run_audit_series(params, runs);

  common::TablePrinter table(
      {"Total number of injected errors = " + std::to_string(with.injected),
       "Without Audits", "With Audits"});

  const auto cell = [](std::size_t n, std::size_t total) {
    return std::to_string(n) + " (" +
           common::fmt(common::percent(n, total), 0) + "%)";
  };
  table.add_row({"Errors escaped from audits, affecting application",
                 cell(without.escaped, without.injected),
                 cell(with.escaped, with.injected)});
  table.add_row({"Errors caught by audits", "N/A",
                 cell(with.caught, with.injected)});
  table.add_row({"Other (escaped but no effect on application)",
                 cell(without.no_effect, without.injected),
                 cell(with.no_effect, with.injected)});
  table.add_row({"Average call setup time (msec)",
                 common::fmt(without.setup_ms.mean(), 0),
                 common::fmt(with.setup_ms.mean(), 0)});

  std::printf("=== Table 3: audit effectiveness, 20 s error inter-arrival "
              "(%zu runs x 2000 s) ===\n\n%s\n",
              runs, table.render().c_str());
  std::printf("Paper: escaped 63%% -> 13%%, caught 85%%, no-effect 37%% -> 2%%, "
              "setup 160 ms -> 270 ms (+69%%)\n");
  const double overhead = without.setup_ms.mean() > 0
                              ? 100.0 * (with.setup_ms.mean() -
                                         without.setup_ms.mean()) /
                                    without.setup_ms.mean()
                              : 0.0;
  std::printf("Measured setup-time overhead with audits: +%.0f%%\n", overhead);
  return 0;
}
