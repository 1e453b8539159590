// Ablation A1: is the PREEMPTIVE property of PECOS actually what buys the
// coverage? §2 critiques prior software CFC schemes (BSSC/CCA/ECCA) for
// detecting erroneous control flow only AFTER instructions from the wrong
// path executed — "the system often crashes before any checking is
// triggered". This bench compares, on directed CFI injections with paired
// error sequences:
//   * no control-flow checking,
//   * BSSC — embedded per-block instruction signatures, checked at block
//     exit [MIR92],
//   * PostCheck — PECOS's assertions evaluated one instruction late, and
//   * PECOS — the same assertions evaluated before the transfer retires.
//
// Flags: --runs=N per error model (default 50)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "experiments/pecos_runner.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 50);
  bench::campaign_init(argc, argv);

  const experiments::CfcMode modes[] = {experiments::CfcMode::None,
                                        experiments::CfcMode::Bssc,
                                        experiments::CfcMode::PostCheck,
                                        experiments::CfcMode::Pecos};
  const char* names[] = {"No checking",
                         "BSSC (embedded block signatures)",
                         "Post-branch assertions (CCA/ECCA-style)",
                         "PECOS (preemptive assertions)"};

  common::TablePrinter table({"Scheme", "Detected", "System Detection (crash)",
                              "Hang", "Fail-silence", "Coverage"});
  for (int m = 0; m < 4; ++m) {
    experiments::PecosRunParams params;
    params.cfc = modes[m];
    params.audit = false;
    params.injector.target = inject::InjectTarget::DirectedCFI;
    params.seed = 0xAB1A7E01;
    const auto counts = experiments::run_pecos_campaign(params, runs);
    const std::size_t act = counts.activated();
    table.add_row(
        {names[m],
         common::format_count_or_percent(
             counts.count(inject::Outcome::PecosDetection), act),
         common::format_count_or_percent(
             counts.count(inject::Outcome::SystemDetection), act),
         common::format_count_or_percent(counts.count(inject::Outcome::ClientHang),
                                         act),
         common::format_count_or_percent(
             counts.count(inject::Outcome::FailSilenceViolation), act),
         common::fmt(counts.coverage_percent(), 0) + "%"});
  }
  std::printf("=== Ablation A1: preemptive vs post-branch control flow checking "
              "(directed CFI, %zu runs/model) ===\n\n%s\n",
              runs, table.render().c_str());
  std::printf("Expected: the post checker detects less and crashes more than "
              "PECOS — wild jumps trap before a late check can fire — which is "
              "exactly the paper's argument for preemption.\n");
  return 0;
}
