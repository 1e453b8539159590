// Ablation A8: hierarchical recovery escalation (the 5ESS-style strategy
// the paper's §2 builds on — "localized repairs whenever possible,
// escalate to more global actions only if necessary").
//
// Under a sustained error storm concentrated on one table (bursty errors
// at a rate that overwhelms per-record repair), compare localized-only
// recovery against recovery with the escalation ladder enabled.
//
// Flags: --runs=N (default 6)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 6);
  bench::campaign_init(argc, argv);

  common::TablePrinter table({"Recovery", "Caught %", "Escaped %", "Latent %",
                              "Setup (ms)"});
  experiments::CampaignOptions campaign_options;
  campaign_options.label = "recovery escalation";
  for (const bool escalation : {false, true}) {
    const auto results = experiments::run_campaign(
        runs,
        [&](std::size_t i) {
          auto params = bench::table2_params();
          params.audits_enabled = true;
          params.audit.escalation = escalation;
          params.audit.escalation_config.table_reload_threshold = 10;
          params.audit.escalation_config.window =
              40 * static_cast<sim::Duration>(sim::kSecond);
          // Storm: clustered errors arriving far faster than Table 2's rate.
          params.injector.arrival = inject::ArrivalModel::Bursty;
          params.injector.inter_arrival =
              3 * static_cast<sim::Duration>(sim::kSecond);
          params.injector.burst_size = 8;
          params.injector.burst_radius = 200;
          params.duration = 600 * static_cast<sim::Duration>(sim::kSecond);
          params.seed = 0xE5CA + i * 131;
          return experiments::run_audit_experiment(params);
        },
        campaign_options);
    std::size_t injected = 0, caught = 0, escaped = 0, latent = 0;
    common::RunningStats setup;
    for (const auto& result : results) {
      injected += result.oracle.injected;
      caught += result.oracle.caught;
      escaped += result.oracle.escaped;
      latent += result.oracle.latent;
      setup.add(result.avg_setup_ms);
    }
    table.add_row({escalation ? "Localized + escalation ladder"
                              : "Localized repairs only",
                   common::fmt(common::percent(caught, injected), 1) + "%",
                   common::fmt(common::percent(escaped, injected), 1) + "%",
                   common::fmt(common::percent(latent, injected), 1) + "%",
                   common::fmt(setup.mean(), 0)});
  }
  std::printf("=== Ablation A8: hierarchical recovery escalation under a "
              "clustered error storm (%zu runs per arm) ===\n\n%s\n",
              runs, table.render().c_str());
  std::printf("Expected: when localized repair is overwhelmed by clustered "
              "damage, the escalation ladder's table reloads clear whole "
              "trouble spots at once — fewer escapes at the cost of dropping "
              "the reloaded table's live records.\n");
  return 0;
}
