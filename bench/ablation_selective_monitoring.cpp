// Ablation A3: selective monitoring of attributes (§4.4.2) — the paper
// describes deriving value-frequency invariants for attributes with no
// enforceable catalog rule but leaves its assessment to [LIU00]. This
// bench measures it here: with corruption biased toward UNRULED dynamic
// fields (where range audit is blind), how much coverage does the
// selective monitor add, and does it misfire on clean flat-distribution
// attributes?
//
// Flags: --runs=N (default 10)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "inject/oracle.hpp"

using namespace wtc;

namespace {

/// Counts caught/escaped/latent restricted to unruled-field injections.
struct UnruledSplit {
  std::size_t caught = 0;
  std::size_t escaped = 0;
  std::size_t other = 0;
  std::size_t total = 0;
};

UnruledSplit unruled_split(const std::vector<inject::InjectionRecord>& records) {
  UnruledSplit split;
  for (const auto& record : records) {
    if (record.kind != inject::TargetKind::UnruledField) {
      continue;
    }
    ++split.total;
    switch (record.fate) {
      case inject::ErrorFate::Caught: ++split.caught; break;
      case inject::ErrorFate::Escaped: ++split.escaped; break;
      default: ++split.other; break;
    }
  }
  return split;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 10);
  bench::campaign_init(argc, argv);

  common::TablePrinter table({"Configuration", "Unruled-field errors",
                              "Caught", "Escaped", "No effect"});
  experiments::CampaignOptions campaign_options;
  campaign_options.label = "selective monitoring";
  for (const bool selective : {false, true}) {
    const auto splits = experiments::run_campaign(
        runs,
        [&](std::size_t i) {
          auto params = bench::table2_params();
          params.audits_enabled = true;
          params.audit.engine.selective_monitoring = selective;
          params.audit.engine.selective_min_records = 8;
          // Higher error pressure so unruled fields collect enough samples.
          params.injector.inter_arrival =
              8 * static_cast<sim::Duration>(sim::kSecond);
          params.seed = 0x5E1E + i * 977;
          return unruled_split(
              experiments::run_audit_experiment(params).injections);
        },
        campaign_options);
    UnruledSplit total;
    for (const auto& split : splits) {
      total.caught += split.caught;
      total.escaped += split.escaped;
      total.other += split.other;
      total.total += split.total;
    }
    table.add_row({selective ? "With selective monitoring"
                             : "Without selective monitoring",
                   std::to_string(total.total), std::to_string(total.caught),
                   std::to_string(total.escaped), std::to_string(total.other)});
  }
  std::printf("=== Ablation A3: selective monitoring of attributes "
              "(%zu runs per arm) ===\n\n%s\n",
              runs, table.render().c_str());
  std::printf("Expected: the derived invariants recover part of the 'lack of "
              "enforceable rule' escape category for peaked attributes "
              "(task_token, link_quality) without misfiring on flat ones "
              "(caller_id, callee_id).\n");
  return 0;
}
