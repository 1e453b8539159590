// Reproduces Table 8: "Cumulative Results from Directed Injection to
// Control Flow Instructions" — breakpoint-triggered injections aimed only
// at the client's CFIs, cumulative over the four Table-6 error models
// (ADDIF, DATAIF, DATAOF, DATAInF), across the four {±PECOS} x {±Audit}
// configurations. Percentages of activated errors with 95% binomial CIs,
// raw counts for rare categories (the paper's convention).
//
// Flags: --runs=N per error model per configuration (default 50 -> 200
// per configuration; the paper used 200 -> 800).
#include "bench_util.hpp"
#include "pecos_table_common.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 50);
  bench::campaign_init(argc, argv);
  bench::run_and_print_campaign_table(
      "=== Table 8: directed injection to control flow instructions ===",
      inject::InjectTarget::DirectedCFI, runs, 0xD5A12001);
  std::printf(
      "Paper shape: PECOS detects most activated CFI errors preemptively "
      "(83%%/77%%), system detection (client crash) drops 52%% -> 14-19%%, "
      "client hangs are eliminated, fail-silence violations ~0.\n");
  return 0;
}
