// Reproduces Table 10: "System-wide Coverage for Database or Client
// Errors" — combines the measured client coverage (Table-9-style random
// instruction-stream campaigns) with the measured database escape rates
// (Table-3-style experiment) into the paper's 25% client / 75% database
// error mix.
//
// Flags: --runs=N per error model per configuration (default 25),
//        --dbruns=N database-experiment runs per arm (default 10)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "experiments/coverage.hpp"
#include "experiments/pecos_runner.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 25);
  const std::size_t db_runs = bench::flag(argc, argv, "dbruns", 10);
  bench::campaign_init(argc, argv);

  // --- client-side coverage: the four configurations, random target ---
  experiments::CoverageInputs inputs;
  for (int cfg = 0; cfg < 4; ++cfg) {
    experiments::PecosRunParams params;
    params.cfc = (cfg & 2) != 0 ? experiments::CfcMode::Pecos
                                : experiments::CfcMode::None;
    params.audit = (cfg & 1) != 0;
    params.injector.target = inject::InjectTarget::Random;
    params.seed = 0xC0BE2001;
    inputs.client_coverage[static_cast<std::size_t>(cfg)] =
        experiments::run_pecos_campaign(params, runs).coverage_percent();
  }

  // --- database-side escape rates, with and without audits ---
  auto db_params = bench::table2_params();
  db_params.audits_enabled = false;
  const auto without = experiments::run_audit_series(db_params, db_runs);
  db_params.audits_enabled = true;
  const auto with = experiments::run_audit_series(db_params, db_runs);
  inputs.db_escaped_without_audit_pct =
      common::percent(without.escaped, without.injected);
  inputs.db_escaped_with_audit_pct = common::percent(with.escaped, with.injected);

  const auto table10 = experiments::compute_table10(inputs, 0.25);

  common::TablePrinter table({"Error Target", "Without PECOS Without Audit",
                              "Without PECOS With Audit",
                              "With PECOS Without Audit",
                              "With PECOS With Audit"});
  const auto row = [&](const char* name, const experiments::ConfigRow& values) {
    table.add_row({name, common::fmt(values[0], 0) + "%",
                   common::fmt(values[1], 0) + "%",
                   common::fmt(values[2], 0) + "%",
                   common::fmt(values[3], 0) + "%"});
  };
  row("Client", table10.client);
  row("Database", table10.database);
  row("Client + Database (25%/75% mix)", table10.mixed);

  std::printf("=== Table 10: system-wide coverage (measured inputs) ===\n\n%s\n",
              table.render().c_str());
  std::printf("Paper: client 28/33/57/58%%, database 37/87/37/87%%, "
              "mixed 35/73/42/80%% — both mechanisms are needed; there is "
              "little overlap in the error types each covers.\n");
  return 0;
}
