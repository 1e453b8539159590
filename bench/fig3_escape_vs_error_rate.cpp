// Reproduces Figure 3: "Number of Escaped Errors under Different Error
// Rates" — the Table-3 environment with the fault/error inter-arrival time
// swept over 2,4,...,20 seconds (Table 2). Reports, per rate, the number
// of escaped errors and the percentage of escaped errors in all injected
// errors. The paper's shape: the count accelerates once the inter-arrival
// drops below the 10 s audit period, while the percentage stays in the
// 8-14% band (gradual change, no cliff).
//
// Flags: --runs=N (default 10 per rate), --csv=PATH (dump the series)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 10);
  const std::string csv_path = bench::flag_str(argc, argv, "csv");
  bench::campaign_init(argc, argv);

  common::TablePrinter table({"Error inter-arrival (s)", "Injected", "Escaped",
                              "Escaped per run", "Escaped %"});
  std::vector<std::vector<std::string>> csv = {
      {"inter_arrival_s", "injected", "escaped", "escaped_per_run", "escaped_pct"}};
  std::printf("=== Figure 3: escaped errors vs error rate (%zu runs per point, "
              "audit period 10 s) ===\n\n",
              runs);
  for (int inter_arrival = 2; inter_arrival <= 20; inter_arrival += 2) {
    auto params = bench::table2_params();
    params.audits_enabled = true;
    params.injector.inter_arrival =
        inter_arrival * static_cast<sim::Duration>(sim::kSecond);
    params.seed = 977 + static_cast<std::uint64_t>(inter_arrival);
    const auto result = experiments::run_audit_series(params, runs);
    table.add_row({std::to_string(inter_arrival), std::to_string(result.injected),
                   std::to_string(result.escaped),
                   common::fmt(static_cast<double>(result.escaped) /
                                   static_cast<double>(runs),
                               1),
                   common::fmt(common::percent(result.escaped, result.injected), 1) +
                       "%"});
    csv.push_back({std::to_string(inter_arrival), std::to_string(result.injected),
                   std::to_string(result.escaped),
                   common::fmt(static_cast<double>(result.escaped) /
                                   static_cast<double>(runs),
                               2),
                   common::fmt(common::percent(result.escaped, result.injected), 2)});
  }
  bench::write_csv(csv_path, csv);
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper: escaped count rises as inter-arrival drops below the audit "
              "period; escaped %% stays roughly constant (8-14%%).\n");
  return 0;
}
