// Reproduces Figure 5: prioritized vs unprioritized audit under the
// UNIFORM error-distribution model (transient hardware / environmental
// errors): (a) proportion of escaped errors and (b) average error
// detection latency, for mean time between errors of 1, 2 and 4 seconds
// (Table 5 parameters: six tables sized 7:18:1:125:8:4, access ratio
// 6:5:4:3:2:1, 16 threads at 20 ops/s, audit of 1 table every 5 s).
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
  std::printf("=== Figure 5: prioritized audit, uniform error distribution "
              "(%zu runs per point) ===\n\n",
              runs);
  for (const int mtbf : {1, 2, 4}) {
    experiments::PrioritizedRunParams params;
    params.duration = duration;
    params.error_mtbf = mtbf * static_cast<sim::Duration>(sim::kSecond);
    params.distribution = inject::ErrorDistribution::UniformDataOnly;
    params.seed = 555 + static_cast<std::uint64_t>(mtbf);

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
  std::printf("Paper: escaped-error reduction 14.6-25.5%%; prioritized latency "
              "slightly HIGHER under uniform errors (focusing on hot tables "
              "delays cold-table detections).\n");
  return 0;
}
