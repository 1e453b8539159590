// Reproduces Figure 6: prioritized vs unprioritized audit under the
// PROPORTIONAL error-distribution model (software bugs / runtime anomaly —
// errors land in tables in proportion to their access frequency):
// (a) proportion of escaped errors and (b) detection latency, for MTBF of
// 1, 2 and 4 seconds (Table 5 parameters).
//
// Flags: --runs=N (default 5 per point), --duration=S (default 600),
//        --csv=PATH (dump the series)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "experiments/prioritized_runner.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 5);
  const auto duration = static_cast<sim::Duration>(
      bench::flag(argc, argv, "duration", 600) * sim::kSecond);
  const std::string csv_path = bench::flag_str(argc, argv, "csv");
  bench::campaign_init(argc, argv);

  common::TablePrinter table({"MTBF (s)", "Escaped % (unprioritized)",
                              "Escaped % (prioritized)", "Reduction",
                              "Latency s (unprio)", "Latency s (prio)"});
  std::vector<std::vector<std::string>> csv = {
      {"mtbf_s", "escaped_pct_unprio", "escaped_pct_prio", "latency_s_unprio",
       "latency_s_prio"}};
  std::printf("=== Figure 6: prioritized audit, access-proportional error "
              "distribution (%zu runs per point) ===\n\n",
              runs);
  for (const int mtbf : {1, 2, 4}) {
    experiments::PrioritizedRunParams params;
    params.duration = duration;
    params.error_mtbf = mtbf * static_cast<sim::Duration>(sim::kSecond);
    params.distribution = inject::ErrorDistribution::ProportionalToAccess;
    params.seed = 777 + static_cast<std::uint64_t>(mtbf);

    params.prioritized = false;
    const auto unprio = experiments::run_prioritized_series(params, runs);
    params.prioritized = true;
    const auto prio = experiments::run_prioritized_series(params, runs);

    const double reduction =
        unprio.escaped_percent > 0
            ? 100.0 * (unprio.escaped_percent - prio.escaped_percent) /
                  unprio.escaped_percent
            : 0.0;
    table.add_row({std::to_string(mtbf),
                   common::fmt(unprio.escaped_percent, 1) + "%",
                   common::fmt(prio.escaped_percent, 1) + "%",
                   common::fmt(reduction, 1) + "%",
                   common::fmt(unprio.detection_latency_s, 1),
                   common::fmt(prio.detection_latency_s, 1)});
    csv.push_back({std::to_string(mtbf), common::fmt(unprio.escaped_percent, 2),
                   common::fmt(prio.escaped_percent, 2),
                   common::fmt(unprio.detection_latency_s, 2),
                   common::fmt(prio.detection_latency_s, 2)});
  }
  bench::write_csv(csv_path, csv);
  std::printf("%s\n", table.render().c_str());
  std::printf("Paper: escapes higher than the uniform model (~25%% of injected); "
              "reduction ~12%%; latency approximately EQUAL (prioritized finds "
              "more errors in the hot subset, so average latency holds).\n");
  return 0;
}
