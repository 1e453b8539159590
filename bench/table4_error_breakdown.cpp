// Reproduces Table 4: "Breakdown of Inserted and Detected Errors" — the
// with-audits arm of the Table-3 experiment, classified by error type:
// structural (record headers), static data (catalog + static tables), and
// dynamic data (detected by range check vs semantic check; escaped due to
// audit timing vs lack of an enforceable rule), plus no-effect errors.
//
// Flags: --runs=N (default 30)
#include <cstdio>

#include "bench_util.hpp"
#include "common/table_printer.hpp"

using namespace wtc;

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 30);
  bench::campaign_init(argc, argv);

  auto params = bench::table2_params();
  params.audits_enabled = true;
  const auto result = experiments::run_audit_series(params, runs);
  const auto& b = result.breakdown;

  const std::size_t structural = b.structural_detected + b.structural_escaped;
  const std::size_t static_data = b.static_detected + b.static_escaped;
  const std::size_t dynamic = b.dynamic_range_detected + b.dynamic_semantic_detected +
                              b.dynamic_escaped_timing + b.dynamic_escaped_no_rule;

  common::TablePrinter table({"Error type", "Count", "Within-type %"});
  const auto row = [&](const char* name, std::size_t n, std::size_t denom) {
    table.add_row({name, std::to_string(n),
                   common::fmt(common::percent(n, denom), 0) + "%"});
  };
  row("Structural: detected", b.structural_detected, structural);
  row("Structural: escaped", b.structural_escaped, structural);
  row("Static data: detected", b.static_detected, static_data);
  row("Static data: escaped", b.static_escaped, static_data);
  row("Dynamic data: detected by range check", b.dynamic_range_detected, dynamic);
  row("Dynamic data: detected by semantic check", b.dynamic_semantic_detected,
      dynamic);
  row("Dynamic data: escaped due to timing", b.dynamic_escaped_timing, dynamic);
  row("Dynamic data: escaped due to lack of rule", b.dynamic_escaped_no_rule,
      dynamic);
  row("No effect", b.no_effect, b.total());

  std::printf("=== Table 4: breakdown of inserted and detected errors "
              "(%zu runs, %zu errors) ===\n\n%s\n",
              runs, b.total(), table.render().c_str());
  std::printf(
      "Paper (within type): structural 100%%/0%%, static 100%%/0%%, dynamic "
      "45%% range + 34%% semantic + 14%% timing + 4%% no-rule; no-effect 3%%\n");
  return 0;
}
