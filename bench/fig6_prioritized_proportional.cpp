// Reproduces Figure 6: prioritized vs unprioritized audit under the
// PROPORTIONAL error-distribution model (software bugs / runtime anomaly —
// errors land in tables in proportion to their access frequency):
// (a) proportion of escaped errors and (b) detection latency, for MTBF of
// 1, 2 and 4 seconds (Table 5 parameters).
//
// Flags: --runs=N (default 5 per point), --duration=S (default 600),
//        --csv=PATH (dump the series)
#include "prioritized_figure_common.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  bench::run_and_print_prioritized_figure(
      argc, argv,
      "Figure 6: prioritized audit, access-proportional error distribution",
      inject::ErrorDistribution::ProportionalToAccess, 777);
  std::printf("Paper: escapes higher than the uniform model (~25%% of injected); "
              "reduction ~12%%; latency approximately EQUAL (prioritized finds "
              "more errors in the hot subset, so average latency holds).\n");
  return 0;
}
