#include "experiments/prioritized_runner.hpp"

#include "callproc/emulated_client.hpp"
#include "db/controller_schema.hpp"
#include "experiments/campaign.hpp"
#include "experiments/controller_stack.hpp"

namespace wtc::experiments {

namespace {
/// Scale 64 puts the hot tables' consumption time on the order of the
/// prioritized audit interval — the regime where checking hot tables more
/// often actually intercepts escapes (and where the cold bulk table's
/// slightly longer interval shows up as the small latency increase the
/// paper reports under uniform errors).
constexpr db::BenchSchemaParams kSchema{.scale = 64};
}  // namespace

PrioritizedRunResult run_prioritized_experiment(const PrioritizedRunParams& params) {
  auto database = std::make_unique<db::Database>(db::make_bench_schema(kSchema));
  db::activate_all_records(*database);
  ControllerStack stack(std::move(database), params.seed);

  // Table 5: audit frequency "1 table every 5 seconds".
  constexpr sim::Duration kAuditTick = 5 * static_cast<sim::Duration>(sim::kSecond);
  audit::AuditProcessConfig audit_cfg;
  audit_cfg.period = kAuditTick;
  audit_cfg.pacing = params.prioritized ? audit::TablePacing::Prioritized
                                         : audit::TablePacing::RoundRobin;
  audit_cfg.weights = params.weights;
  audit_cfg.heartbeat = false;
  audit_cfg.progress_indicator = false;
  audit_cfg.engine.semantic_check = false;  // the bench schema has no FK loops
  audit_cfg.engine.static_check = false;    // nor static tables
  audit_cfg.engine.recent_write_grace =
      100 * static_cast<sim::Duration>(sim::kMillisecond);
  // This experiment studies detection timing, not CPU contention; keep the
  // modelled audit cost small so one 5 s tick never saturates the CPU even
  // for the 125-unit table.
  audit_cfg.engine.cost_scale = 0.2;
  // No client directory: the emulated client is not controllable, so the
  // audit runs without client control.
  stack.deploy_audit(audit_cfg, Supervision::None);
  stack.node().spawn("client", std::make_shared<callproc::EmulatedLoadClient>(
                                   stack.db(), stack.cpu(), stack.rng().fork(1),
                                   stack.audit_sink()));

  inject::DbInjectorConfig inj_cfg;
  inj_cfg.inter_arrival = params.error_mtbf;
  inj_cfg.arrival = params.arrival;
  inj_cfg.distribution = params.distribution;
  stack.spawn_db_injector(inj_cfg);

  stack.scheduler().run_until(static_cast<sim::Time>(params.duration));

  const auto summary = stack.oracle().summary();
  PrioritizedRunResult result;
  result.injected = summary.injected;
  result.escaped = summary.escaped;
  result.caught = summary.caught;
  result.escaped_percent = common::percent(summary.escaped, summary.injected);
  result.detection_latency_s = summary.detection_latency_s.mean();
  return result;
}

PrioritizedRunResult run_prioritized_series(PrioritizedRunParams params,
                                            std::size_t runs) {
  // Per-run seeds: the legacy serial loop's LCG chain, precomputed so the
  // runs can fan out across workers (results still merge in seed order).
  std::vector<std::uint64_t> seeds(runs);
  std::uint64_t seed = params.seed;
  for (std::size_t i = 0; i < runs; ++i) {
    seed = seed * 2862933555777941757ull + 3037000493ull;
    seeds[i] = seed;
  }

  CampaignOptions options;
  options.label = "prioritized series";
  const std::vector<PrioritizedRunResult> results = run_campaign(
      runs,
      [&](std::size_t i) {
        PrioritizedRunParams run_params = params;
        run_params.seed = seeds[i];
        return run_prioritized_experiment(run_params);
      },
      options);

  PrioritizedRunResult total;
  common::RunningStats latency;
  for (const PrioritizedRunResult& run : results) {
    total.injected += run.injected;
    total.escaped += run.escaped;
    total.caught += run.caught;
    if (run.caught > 0) {
      latency.add(run.detection_latency_s);
    }
  }
  total.escaped_percent = common::percent(total.escaped, total.injected);
  total.detection_latency_s = latency.mean();
  return total;
}

}  // namespace wtc::experiments
