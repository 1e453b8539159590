#include "experiments/audit_runner.hpp"

#include <stdexcept>

#include "experiments/campaign.hpp"
#include "experiments/controller_stack.hpp"
#include "experiments/replay_workload.hpp"

namespace wtc::experiments {

AuditRunResult run_audit_experiment(const AuditRunParams& params) {
  if (!params.replay_oplog_path.empty()) {
    // Zero-simulation path: the captured log IS the workload.
    return run_replay_workload(params, params.replay_oplog_path);
  }

  ControllerStack stack(db::make_controller_database(params.schema),
                        params.seed);
  stack.add_client_directory();

  // Whole-run op-log tee: records every successful API event ahead of the
  // audit IPC adapter. The client reports to it when a file capture was
  // requested or the replay audit arm needs the in-memory log; recording
  // starts at the pristine boot image, which is exactly the replay
  // validity baseline.
  audit::AuditProcessConfig audit_config = params.audit;
  const bool recording =
      !params.record_oplog_path.empty() || audit_config.replay_audit;
  db::RunOpLog& oplog = stack.run_log();
  if (!params.record_oplog_path.empty() &&
      !oplog.open_file(params.record_oplog_path)) {
    throw std::runtime_error("cannot open op-log file '" +
                             params.record_oplog_path + "' for recording");
  }
  if (audit_config.replay_audit) {
    audit_config.replay_log = &oplog;
  }

  // Audit process under manager supervision (Figure 1).
  if (params.audits_enabled) {
    stack.deploy_audit(audit_config, Supervision::Manager);
  }
  const auto client =
      stack.spawn_native_client(recording ? &oplog : stack.audit_sink());
  if (params.injections_enabled) {
    stack.spawn_db_injector(params.injector);
    // One injection per mean inter-arrival (exactly so at the Table-2
    // fixed rate): the oracle's log is sized once instead of growing
    // through the run.
    if (params.injector.inter_arrival > 0) {
      stack.oracle().reserve(static_cast<std::size_t>(
          params.duration / params.injector.inter_arrival + 1));
    }
  }

  stack.scheduler().run_until(static_cast<sim::Time>(params.duration));
  if (!params.record_oplog_path.empty() && !oplog.close_file()) {
    throw std::runtime_error("op-log file '" + params.record_oplog_path +
                             "' failed to flush cleanly");
  }

  AuditRunResult result;
  result.oplog_recorded = oplog.recorded();
  if (params.capture_final_region) {
    const auto region = stack.db().region();
    result.final_region.assign(region.begin(), region.end());
  }
  const inject::CorruptionOracle& oracle = stack.oracle();
  result.oracle = oracle.summary();
  result.injections = oracle.records();
  result.client = client->stats();
  result.audit_findings = oracle.audit_findings();
  result.manager_restarts = stack.restarts();
  result.avg_setup_ms = client->stats().setup_time_ms.mean();
  if (const auto audit = stack.audit()) {
    result.audit_cycles = audit->cycles();
    result.audit_cost = audit->total_cost();
    result.full_sweeps = audit->engine().full_sweeps();
    result.audit_makespan = audit->engine().total_makespan();
    result.budget_exhausted_cycles = audit->engine().budget_exhausted_cycles();
    result.deferred_units = audit->engine().deferred_units_total();
    if (const audit::AuditElement* element = audit->find_element("replay-audit")) {
      const auto* replay = static_cast<const audit::ReplayAuditElement*>(element);
      result.replay_runs = replay->runs();
      result.replay = replay->last_stats();
    }
  }
  return result;
}

ErrorBreakdown classify_injections(
    const std::vector<inject::InjectionRecord>& injections) {
  ErrorBreakdown b;
  for (const auto& record : injections) {
    const bool caught = record.fate == inject::ErrorFate::Caught;
    const bool escaped = record.fate == inject::ErrorFate::Escaped;
    if (!caught && !escaped) {
      ++b.no_effect;
      continue;
    }
    switch (record.kind) {
      case inject::TargetKind::Catalog:
      case inject::TargetKind::StaticTable:
        caught ? ++b.static_detected : ++b.static_escaped;
        break;
      case inject::TargetKind::RecordHeader:
        caught ? ++b.structural_detected : ++b.structural_escaped;
        break;
      case inject::TargetKind::RangedField:
      case inject::TargetKind::KeyField:
        if (caught) {
          // Attribute to the technique that actually fired.
          if (record.caught_by == audit::Technique::SemanticCheck ||
              record.caught_by == audit::Technique::SelectiveMonitor) {
            ++b.dynamic_semantic_detected;
          } else {
            ++b.dynamic_range_detected;
          }
        } else {
          ++b.dynamic_escaped_timing;  // a rule existed; the audit was late
        }
        break;
      case inject::TargetKind::UnruledField:
        if (caught) {
          if (record.caught_by == audit::Technique::RangeCheck ||
              record.caught_by == audit::Technique::StructuralCheck ||
              record.caught_by == audit::Technique::StaticChecksum) {
            ++b.dynamic_range_detected;  // collateral recovery localized it
          } else {
            ++b.dynamic_semantic_detected;
          }
        } else {
          ++b.dynamic_escaped_no_rule;
        }
        break;
    }
  }
  return b;
}

AggregateAuditResult run_audit_series(AuditRunParams params, std::size_t runs) {
  // Process-wide --record-oplog/--replay-oplog defaults apply at the
  // series level: recording captures run 0 only (one file, one log);
  // replay substitutes the captured workload in every run.
  if (params.record_oplog_path.empty()) {
    params.record_oplog_path = default_record_oplog();
  }
  if (params.replay_oplog_path.empty()) {
    params.replay_oplog_path = default_replay_oplog();
  }

  // Per-run seeds: the same LCG chain the legacy serial loop advanced
  // in-place, precomputed so runs can execute in parallel.
  std::vector<std::uint64_t> seeds(runs);
  std::uint64_t seed = params.seed;
  for (std::size_t i = 0; i < runs; ++i) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    seeds[i] = seed;
  }

  CampaignOptions options;
  options.label = "audit series";
  const std::vector<AuditRunResult> results = run_campaign(
      runs,
      [&](std::size_t i) {
        AuditRunParams run_params = params;
        run_params.seed = seeds[i];
        if (i > 0) {
          run_params.record_oplog_path.clear();  // run 0 owns the capture file
        }
        return run_audit_experiment(run_params);
      },
      options);

  // Aggregate in seed order: RunningStats accumulation is order-sensitive
  // in floating point, so this keeps parallel output bit-identical to the
  // serial path.
  AggregateAuditResult aggregate;
  for (const AuditRunResult& run : results) {
    aggregate.injected += run.oracle.injected;
    aggregate.escaped += run.oracle.escaped;
    aggregate.caught += run.oracle.caught;
    aggregate.no_effect += run.oracle.no_effect();
    aggregate.setup_ms.add(run.avg_setup_ms);
    if (run.oracle.detection_latency_s.count() > 0) {
      aggregate.detection_latency_s.add(run.oracle.detection_latency_s.mean());
    }
    if (run.audit_cycles > 0) {
      aggregate.audit_cost_per_cycle_us.add(
          static_cast<double>(run.audit_cost) /
          static_cast<double>(run.audit_cycles));
      aggregate.cycle_latency_us.add(
          static_cast<double>(run.audit_makespan) /
          static_cast<double>(run.audit_cycles));
    }
    aggregate.audit_cycles += run.audit_cycles;
    aggregate.full_sweeps += run.full_sweeps;
    aggregate.budget_exhausted_cycles += run.budget_exhausted_cycles;
    aggregate.deferred_units += run.deferred_units;
    const ErrorBreakdown b = classify_injections(run.injections);
    aggregate.breakdown.structural_detected += b.structural_detected;
    aggregate.breakdown.structural_escaped += b.structural_escaped;
    aggregate.breakdown.static_detected += b.static_detected;
    aggregate.breakdown.static_escaped += b.static_escaped;
    aggregate.breakdown.dynamic_range_detected += b.dynamic_range_detected;
    aggregate.breakdown.dynamic_semantic_detected += b.dynamic_semantic_detected;
    aggregate.breakdown.dynamic_escaped_timing += b.dynamic_escaped_timing;
    aggregate.breakdown.dynamic_escaped_no_rule += b.dynamic_escaped_no_rule;
    aggregate.breakdown.no_effect += b.no_effect;
  }
  return aggregate;
}

}  // namespace wtc::experiments
