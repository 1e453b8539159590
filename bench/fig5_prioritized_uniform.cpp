// Reproduces Figure 5: prioritized vs unprioritized audit under the
// UNIFORM error-distribution model (transient hardware / environmental
// errors): (a) proportion of escaped errors and (b) average error
// detection latency, for mean time between errors of 1, 2 and 4 seconds
// (Table 5 parameters: six tables sized 7:18:1:125:8:4, access ratio
// 6:5:4:3:2:1, 16 threads at 20 ops/s, audit of 1 table every 5 s).
//
// Flags: --runs=N (default 5 per point), --duration=S (default 600),
//        --csv=PATH (dump the series)
#include "prioritized_figure_common.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  bench::run_and_print_prioritized_figure(
      argc, argv, "Figure 5: prioritized audit, uniform error distribution",
      inject::ErrorDistribution::UniformDataOnly, 555);
  std::printf("Paper: escaped-error reduction 14.6-25.5%%; prioritized latency "
              "slightly HIGHER under uniform errors (focusing on hot tables "
              "delays cold-table detections).\n");
  return 0;
}
