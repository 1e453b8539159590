// Shared campaign for the Figure 5 / Figure 6 prioritized-audit sweeps.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "experiments/prioritized_runner.hpp"

namespace wtc::bench {

/// Parses the figure's flags, runs unprioritized and prioritized audit
/// campaigns at mean times between errors of 1, 2 and 4 s under
/// `distribution`, writes the --csv series and prints the table.
inline void run_and_print_prioritized_figure(
    int argc, char** argv, const char* title,
    inject::ErrorDistribution distribution, std::uint64_t seed_base) {
  const std::size_t runs = runs_flag(argc, argv, 5);
  const auto duration = static_cast<sim::Duration>(
      flag(argc, argv, "duration", 600) * sim::kSecond);
  const std::string csv_path = flag_str(argc, argv, "csv");
  campaign_init(argc, argv);

  common::TablePrinter table({"MTBF (s)", "Escaped % (unprioritized)",
                              "Escaped % (prioritized)", "Reduction",
                              "Latency s (unprio)", "Latency s (prio)"});
  std::vector<std::vector<std::string>> csv = {
      {"mtbf_s", "escaped_pct_unprio", "escaped_pct_prio", "latency_s_unprio",
       "latency_s_prio"}};
  std::printf("=== %s (%zu runs per point) ===\n\n", title, runs);
  for (const int mtbf : {1, 2, 4}) {
    experiments::PrioritizedRunParams params;
    params.duration = duration;
    params.error_mtbf = mtbf * static_cast<sim::Duration>(sim::kSecond);
    params.distribution = distribution;
    params.seed = seed_base + static_cast<std::uint64_t>(mtbf);

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
  write_csv(csv_path, csv);
  std::printf("%s\n", table.render().c_str());
}

}  // namespace wtc::bench
