// Ablation A13: active control-flow attestation with guaranteed healing
// (PECOS -> ACFA).
//
// PECOS's Assertion Blocks are preemptive but *local*: an erroneous
// transfer that skips every assertion site (or crashes the thread before a
// deferred check fires) escapes them. The ACFA extension streams every
// retired control transfer into a bounded per-thread CF log and attests
// the log against the CFG plan every slice period, so detection latency is
// bounded by the period; on a violation the active manager heals the
// offending thread (restore + replay + restart) instead of losing it.
//
// Four arms, paired error sequences (same seeds per run index), directed
// CFI injections across the four Table-6 error models:
//   * post-branch assertions (deferred baseline — loses the crash race),
//   * post-branch + attestation (the slice catches what the race ate),
//   * PECOS (preemptive, detect-only),
//   * PECOS + attestation + healing (full ACFA).
//
// Table-7-style outcome classification per run: detected-preemptive /
// detected-by-attestation / crashed / escaped (fail-silence or hang) /
// benign / not-activated, plus healing columns for the healing arm.
//
// The binary exits nonzero if any of the three ACFA guarantees fails:
//   1. every attestation detection landed within one slice period,
//   2. the healing arm finished with zero unhealed CF violations,
//   3. the per-run outcome rows are byte-identical at --jobs=N and
//      --jobs=1 (campaign determinism).
//
// Flags: --runs=N per error model (default 40), --slice-period=MS
//        (default 100), --cf-attest=0|1 / --heal=0|1 (drop the attestation
//        / healing arms — their guarantees are then skipped), --json=PATH
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "experiments/campaign.hpp"
#include "experiments/pecos_runner.hpp"
#include "report.hpp"

using namespace wtc;

namespace {

/// One arm's protection configuration.
struct Arm {
  const char* name;
  const char* key;  // its key in the JSON report's "arms" object
  experiments::CfcMode cfc;
  bool cf_attest;
  bool heal;
};

/// Per-run A13 evidence, reduced to what the table and the guarantees
/// need. `outcome` is the Table-7-style class below.
struct RunRow {
  char outcome = '?';
  std::uint32_t heals = 0;
  std::uint32_t escalations = 0;
  bool unhealed = false;
  std::uint64_t max_latency_us = 0;
  std::uint64_t attest_detections = 0;
};

/// Outcome precedence: a run is classified by its *first* line of defence.
///   P = detected preemptively (PECOS assertion block)
///   A = detected by attestation only (the slice caught it)
///   C = crashed (OS-level detection, no CFC detection first)
///   E = escaped (fail-silence violation or hang, nothing detected)
///   B = benign (activated but the client completed correctly)
///   N = not activated
char classify_run(const experiments::PecosRunResult& r) {
  if (!r.activated) {
    return 'N';
  }
  if (r.pecos_detections > 0) {
    return 'P';
  }
  if (r.attest_detections > 0) {
    return 'A';
  }
  if (r.crashed) {
    return 'C';
  }
  if (r.outcome == inject::Outcome::FailSilenceViolation ||
      r.outcome == inject::Outcome::ClientHang) {
    return 'E';
  }
  return 'B';
}

struct ArmResult {
  std::size_t runs = 0;
  std::size_t activated = 0;
  std::size_t preemptive = 0;
  std::size_t by_attestation = 0;
  std::size_t crashed = 0;
  std::size_t escaped = 0;
  std::size_t benign = 0;
  std::size_t healed_runs = 0;
  std::size_t escalations = 0;
  std::size_t unhealed = 0;
  std::uint64_t max_latency_us = 0;
  std::string row_string;  // per-run classification, seed order
};

/// Runs one arm over the paired (model, seed) spec list and folds the
/// per-run rows into the arm aggregate. The row string is the determinism
/// witness: one character per run in seed order plus the healing counters.
ArmResult run_arm(const Arm& arm, sim::Duration slice_period,
                  const std::vector<std::pair<inject::ErrorModel, std::uint64_t>>&
                      specs) {
  experiments::CampaignOptions options;
  options.label = std::string("A13 ") + arm.name;
  const std::vector<RunRow> rows = experiments::run_campaign(
      specs.size(),
      [&](std::size_t i) {
        experiments::PecosRunParams params;
        params.cfc = arm.cfc;
        params.audit = false;
        params.cf_attest = arm.cf_attest;
        params.heal = arm.heal;
        params.slice_period = slice_period;
        params.injector.target = inject::InjectTarget::DirectedCFI;
        params.injector.model = specs[i].first;
        params.seed = specs[i].second;
        const auto r = experiments::run_pecos_single(params);
        RunRow row;
        row.outcome = classify_run(r);
        row.heals = r.heals;
        row.escalations = r.heal_escalations;
        row.unhealed = r.unhealed_violation;
        row.max_latency_us = r.max_attest_latency_us;
        row.attest_detections = r.attest_detections;
        return row;
      },
      options);

  ArmResult result;
  result.runs = rows.size();
  for (const RunRow& row : rows) {
    result.row_string += row.outcome;
    result.row_string += std::to_string(row.heals);
    result.row_string += row.unhealed ? 'u' : '-';
    switch (row.outcome) {
      case 'P': ++result.preemptive; break;
      case 'A': ++result.by_attestation; break;
      case 'C': ++result.crashed; break;
      case 'E': ++result.escaped; break;
      case 'B': ++result.benign; break;
      default: break;
    }
    if (row.outcome != 'N') {
      ++result.activated;
    }
    if (row.heals > 0) {
      ++result.healed_runs;
    }
    result.escalations += row.escalations;
    result.unhealed += row.unhealed ? 1u : 0u;
    result.max_latency_us = std::max(result.max_latency_us, row.max_latency_us);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t runs = bench::runs_flag(argc, argv, 40);
  const std::size_t slice_ms = bench::flag(argc, argv, "slice-period", 100);
  const bool with_attest = bench::flag(argc, argv, "cf-attest", 1) != 0;
  const bool with_heal = bench::flag(argc, argv, "heal", 1) != 0;
  const std::string json_path =
      bench::flag_str(argc, argv, "json", "BENCH_cf_attestation.json");
  bench::campaign_init(argc, argv);

  const auto slice_period = static_cast<sim::Duration>(
      slice_ms * static_cast<std::size_t>(sim::kMillisecond));

  // Paired seeds: identical (model, seed) sequences for every arm, so the
  // arms face the *same* injected errors (the Table 8/9 pairing).
  const inject::ErrorModel models[] = {
      inject::ErrorModel::ADDIF, inject::ErrorModel::DATAIF,
      inject::ErrorModel::DATAOF, inject::ErrorModel::DATAInF};
  std::vector<std::pair<inject::ErrorModel, std::uint64_t>> specs;
  specs.reserve(4 * runs);
  const std::uint64_t base_seed = 0xACFA2001;
  for (const auto model : models) {
    for (std::size_t i = 0; i < runs; ++i) {
      std::uint64_t seed = base_seed ^
                           (static_cast<std::uint64_t>(model) << 32) ^
                           (i * 0x9E3779B97F4A7C15ull);
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      specs.emplace_back(model, seed);
    }
  }

  std::vector<Arm> arms;
  arms.push_back({"Post-branch assertions", "postcheck",
                  experiments::CfcMode::PostCheck, false, false});
  if (with_attest) {
    arms.push_back({"Post-branch + attestation", "postcheck_acfa",
                    experiments::CfcMode::PostCheck, true, false});
  }
  arms.push_back({"PECOS (preemptive)", "pecos", experiments::CfcMode::Pecos,
                  false, false});
  if (with_attest && with_heal) {
    arms.push_back({"PECOS + attestation + healing", "pecos_acfa_heal",
                    experiments::CfcMode::Pecos, true, true});
  }

  std::printf("=== Ablation A13: control-flow attestation + healing "
              "(directed CFI, %zu runs/model, %zu ms slice) ===\n\n",
              runs, slice_ms);

  std::vector<ArmResult> results;
  for (const Arm& arm : arms) {
    results.push_back(run_arm(arm, slice_period, specs));
  }

  common::TablePrinter table({"Arm", "Preemptive", "By attestation", "Crash",
                              "Escaped", "Healed runs", "Unhealed",
                              "Max latency (ms)"});
  for (std::size_t a = 0; a < results.size(); ++a) {
    const ArmResult& r = results[a];
    table.add_row(
        {arms[a].name,
         common::format_count_or_percent(r.preemptive, r.activated),
         common::format_count_or_percent(r.by_attestation, r.activated),
         common::format_count_or_percent(r.crashed, r.activated),
         common::format_count_or_percent(r.escaped, r.activated),
         std::to_string(r.healed_runs), std::to_string(r.unhealed),
         common::fmt(static_cast<double>(r.max_latency_us) / 1000.0, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  // --- guarantee 1: bounded detection latency ---
  std::uint64_t worst_latency = 0;
  for (const ArmResult& r : results) {
    worst_latency = std::max(worst_latency, r.max_latency_us);
  }
  const bool latency_ok =
      worst_latency <= static_cast<std::uint64_t>(slice_period);
  std::printf("Detection latency bound: worst %.1f ms vs %zu ms slice "
              "period: %s\n",
              static_cast<double>(worst_latency) / 1000.0, slice_ms,
              latency_ok ? "HELD" : "VIOLATED");

  // --- guarantee 2: zero unhealed CF errors in the healing arm ---
  const ArmResult& last_arm = results.back();
  bool healing_ok = true;
  if (arms.back().heal) {
    healing_ok = last_arm.unhealed == 0;
    std::printf("Healing guarantee: %zu unhealed violations in the healing "
                "arm (%zu runs healed, %zu escalations): %s\n",
                last_arm.unhealed, last_arm.healed_runs, last_arm.escalations,
                healing_ok ? "HELD" : "VIOLATED");
  } else {
    std::printf("Healing guarantee: skipped (healing arm disabled)\n");
  }

  // --- guarantee 3: outcome rows byte-identical at --jobs=1 ---
  const std::size_t parallel_jobs = experiments::default_campaign_jobs();
  experiments::set_default_campaign_jobs(1);
  const ArmResult serial = run_arm(arms.back(), slice_period, specs);
  experiments::set_default_campaign_jobs(parallel_jobs);
  const bool deterministic = serial.row_string == last_arm.row_string;
  std::printf("Determinism (per-run outcome rows, parallel vs --jobs=1): "
              "%s\n\n",
              deterministic ? "IDENTICAL" : "MISMATCH");

  std::printf("Expected: the deferred baseline crashes on wild transfers; "
              "adding attestation converts those escapes into bounded-"
              "latency detections; the healing arm detects preemptively "
              "AND returns every violating thread to service.\n");

  using bench::Json;
  bench::Report report("cf_attestation");
  report.gate(latency_ok, "an attestation detection exceeded the slice period");
  report.gate(healing_ok, "the healing arm left a CF violation unhealed");
  report.gate(deterministic,
              "per-run outcome rows differ between parallel and --jobs=1");
  Json arm_results = Json::object();
  for (std::size_t a = 0; a < results.size(); ++a) {
    const ArmResult& r = results[a];
    arm_results.add(arms[a].key,
                    Json::object({{"activated", r.activated},
                                  {"preemptive", r.preemptive},
                                  {"by_attestation", r.by_attestation},
                                  {"crashed", r.crashed},
                                  {"escaped", r.escaped},
                                  {"benign", r.benign},
                                  {"healed_runs", r.healed_runs},
                                  {"escalations", r.escalations},
                                  {"unhealed", r.unhealed},
                                  {"max_latency_us", r.max_latency_us}}));
  }
  report.add("runs_per_model", runs)
      .add("slice_period_ms", slice_ms)
      .add("latency_bound_held", latency_ok)
      .add("worst_latency_us", worst_latency)
      .add("healing_guarantee_held", healing_ok)
      .add("deterministic", deterministic)
      .add("arms", std::move(arm_results));
  return report.finish(json_path);
}
