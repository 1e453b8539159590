// Ablation A7: does the error-history criterion (§4.4.1) earn its weight?
//
// The paper justifies steering audits toward recently-erroneous tables by
// "temporal locality of data errors". Under a memoryless error process the
// history term can only add noise; under BURSTY errors (clustered in time
// and space, the signature of software bugs and runtime anomalies) it
// should pay off. This bench runs the prioritized-audit experiment under
// both error processes with the error-history weight on and off.
//
// Flags: --runs=N (default 8)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "experiments/prioritized_runner.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 8);
  bench::campaign_init(argc, argv);

  common::TablePrinter table({"Error process", "History weight", "Escaped %",
                              "Caught", "Latency (s)"});
  for (const bool bursty : {false, true}) {
    for (const double history : {0.0, 0.3}) {
      experiments::PrioritizedRunParams params;
      params.duration = 600 * static_cast<sim::Duration>(sim::kSecond);
      params.error_mtbf = 2 * static_cast<sim::Duration>(sim::kSecond);
      params.prioritized = true;
      params.weights.error_history = history;
      params.weights.access_frequency = 0.9 - history;
      params.arrival = bursty ? inject::ArrivalModel::Bursty
                              : inject::ArrivalModel::Exponential;
      params.seed = 0xE44 + (bursty ? 7 : 0);
      const auto result = experiments::run_prioritized_series(params, runs);
      table.add_row({bursty ? "Bursty (clustered)" : "Memoryless (exponential)",
                     common::fmt(history, 1),
                     common::fmt(result.escaped_percent, 1) + "%",
                     std::to_string(result.caught),
                     common::fmt(result.detection_latency_s, 1)});
    }
  }
  std::printf("=== Ablation A7: error-history prioritization vs error process "
              "(%zu runs per cell) ===\n\n%s\n",
              runs, table.render().c_str());
  std::printf("Expected: with memoryless errors the history term is neutral; "
              "with bursty errors it reduces escapes and latency — the "
              "paper's temporal-locality assumption, made testable.\n");
  return 0;
}
