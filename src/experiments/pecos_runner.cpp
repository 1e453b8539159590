#include "experiments/pecos_runner.hpp"

#include <algorithm>
#include <unordered_set>

#include "audit/cf_attest.hpp"
#include "audit/messages.hpp"
#include "callproc/control.hpp"
#include "callproc/vm_driver.hpp"
#include "callproc/vm_program.hpp"
#include "db/controller_schema.hpp"
#include "db/op_log.hpp"
#include "experiments/campaign.hpp"
#include "experiments/controller_stack.hpp"
#include "manager/healer.hpp"
#include "pecos/bssc.hpp"
#include "pecos/cf_log.hpp"
#include "pecos/monitor.hpp"

namespace wtc::experiments {

PecosRunResult run_pecos_single(const PecosRunParams& params) {
  ControllerStack stack(db::make_controller_database(), params.seed);
  sim::Scheduler& scheduler = stack.scheduler();
  db::Database& db = stack.db();
  const auto ids = db::resolve_controller_ids(db.schema());
  callproc::ClientDirectory& directory = stack.add_client_directory();

  // The MiniVM client's program, optionally instrumented with PECOS.
  callproc::VmProgramParams prog_params;
  prog_params.ids = ids;
  prog_params.num_subscribers =
      static_cast<std::int32_t>(db.schema().tables[ids.subscriber].num_records);
  prog_params.calls_per_thread = params.calls_per_thread;
  const vm::Program program = callproc::build_call_program(prog_params);

  std::optional<pecos::Plan> plan;
  std::optional<pecos::BsscPlan> bssc_plan;
  std::unique_ptr<vm::ExecMonitor> monitor;
  pecos::PecosMonitor* pecos_monitor = nullptr;
  pecos::PostCheckMonitor* postcheck_monitor = nullptr;
  switch (params.cfc) {
    case CfcMode::None:
      break;
    case CfcMode::Pecos: {
      plan.emplace(pecos::Plan::instrument(program));
      auto m = std::make_unique<pecos::PecosMonitor>(*plan);
      pecos_monitor = m.get();
      monitor = std::move(m);
      break;
    }
    case CfcMode::PostCheck: {
      plan.emplace(pecos::Plan::instrument(program));
      auto m = std::make_unique<pecos::PostCheckMonitor>(*plan);
      postcheck_monitor = m.get();
      monitor = std::move(m);
      break;
    }
    case CfcMode::Bssc:
      bssc_plan.emplace(pecos::BsscPlan::instrument(program));
      monitor = std::make_unique<pecos::BsscMonitor>(*bssc_plan);
      break;
  }

  // ACFA needs the CFG plan, so it rides the Pecos/PostCheck modes only.
  const bool cf_attest_active = params.cf_attest && plan.has_value();
  const bool heal_active = params.heal && plan.has_value();

  std::optional<pecos::CfLog> cf_log;
  if (cf_attest_active || heal_active) {
    cf_log.emplace();  // 256 transitions per thread ring
    if (pecos_monitor != nullptr) {
      pecos_monitor->set_cf_log(&*cf_log);
    } else if (postcheck_monitor != nullptr) {
      postcheck_monitor->set_cf_log(&*cf_log);
    }
  }

  // Audit process. The attestation element lives here, so ACFA runs bring
  // up a (minimal, if params.audit is off) audit process; healing
  // additionally brings up the duplicated manager pair to route
  // violations through the active manager.
  sim::ProcessId client_pid = sim::kNoProcess;
  // Held for the whole run: `attest_element` lives inside it, and a
  // manager restart would otherwise free it.
  std::shared_ptr<audit::AuditProcess> audit_process;
  audit::CfAttestElement* attest_element = nullptr;
  // Both detection paths report through `report_violation`; the healing
  // arm sets `violation_route` once the managers exist.
  using ViolationHandler = std::function<void(const audit::CfViolation&)>;
  ViolationHandler violation_route;
  const auto report_violation = [&violation_route](const audit::CfViolation& v) {
    if (violation_route) {
      violation_route(v);
    }
  };
  if (params.audit || cf_attest_active) {
    // Audit period compressed to match the shorter runs.
    constexpr sim::Duration kAuditPeriod = 1 * static_cast<sim::Duration>(sim::kSecond);
    audit::AuditProcessConfig audit_cfg;
    audit_cfg.period = kAuditPeriod;
    audit_cfg.event_triggered = params.audit;
    audit_cfg.periodic_enabled = params.audit;
    audit_cfg.progress_indicator = params.audit;
    audit_cfg.progress_timeout = 5 * static_cast<sim::Duration>(sim::kSecond);
    audit_cfg.engine.recent_write_grace =
        100 * static_cast<sim::Duration>(sim::kMillisecond);
    stack.deploy_audit(audit_cfg, Supervision::None);
    audit_process = stack.audit();
    if (cf_attest_active) {
      audit::CfAttestConfig attest_cfg;
      attest_cfg.slice_period = params.slice_period;
      auto element = std::make_unique<audit::CfAttestElement>(
          *cf_log, *plan, attest_cfg, [&client_pid]() { return client_pid; },
          heal_active ? ViolationHandler(report_violation) : ViolationHandler());
      attest_element = element.get();
      // Registered before the audit's start event runs, so on_start arms
      // the slice timer.
      audit_process->add_element(std::move(element));
    }
  }
  db::NotificationSink* const audit_sink = params.audit ? stack.audit_sink() : nullptr;

  // Per-thread op log (healing replay feed): tees the instrumented API's
  // notifications, so the audit process sees exactly what it saw before.
  std::optional<db::ThreadOpLog> op_log;
  db::NotificationSink* driver_sink = audit_sink;
  if (heal_active) {
    op_log.emplace(audit_sink);
    driver_sink = &*op_log;
    if (attest_element != nullptr) {
      attest_element->set_op_log(&*op_log);
    }
  }

  callproc::VmDriverConfig driver_cfg;
  driver_cfg.threads = params.threads;
  auto driver = std::make_shared<callproc::VmClientDriver>(
      program, db, stack.cpu(), stack.rng().fork(7), driver_cfg, driver_sink,
      monitor.get());
  client_pid = stack.spawn_client(driver);

  // Healing: duplicated manager pair + the healer, with both detection
  // paths (preemptive trap, attestation slice) routed to whichever manager
  // is active when the violation report arrives.
  std::optional<manager::CfHealer> healer;
  if (heal_active) {
    manager::ManagerPair& managers = stack.adopt_audit_with_pair();
    healer.emplace(db, *op_log, *cf_log, *driver, &directory, &stack.oracle(),
                   [&scheduler]() { return scheduler.now(); });
    managers.first->set_healer(&*healer);
    managers.second->set_healer(&*healer);
    violation_route = [&node = stack.node(), &managers](const audit::CfViolation& v) {
      const manager::Manager& active = managers.active(node);
      const sim::ProcessId to = &active == managers.first.get()
                                    ? managers.first_pid
                                    : managers.second_pid;
      node.send(to, audit::msg::make_cf_violation(v));
    };
    driver->set_violation_handler(report_violation);
  }

  inject::ClientErrorInjector injector(driver->vmp(), scheduler,
                                       stack.rng().fork(9), params.injector);
  injector.arm();

  // Virtual-time budget per run; exceeding it without completing = hang.
  constexpr sim::Time kDeadline = 60 * sim::kSecond;
  std::optional<sim::Time> client_done;
  while (scheduler.now() < kDeadline) {
    if (!driver->finished()) {
      client_done.reset();
    } else if (!client_done) {
      client_done = scheduler.now();
    }
    // With attestation on, drain one extra slice period past client
    // completion so transfers logged at the very end are still attested
    // (and, in the healing arm, healed — which un-finishes the client).
    if (client_done &&
        (!cf_attest_active ||
         scheduler.now() > *client_done + static_cast<sim::Time>(params.slice_period))) {
      break;
    }
    if (!scheduler.step()) {
      break;
    }
  }

  // --- gather the run's evidence (Table 7) ---
  inject::RunEvents events;
  events.activated = injector.activated();
  events.first_pecos = driver->first_pecos_time();
  events.crash = driver->crash_time();
  events.first_hang = driver->first_hang_time();
  events.first_audit = stack.oracle().first_finding_time();
  if (!driver->finished()) {
    // Ran out of virtual time without completing: the client is wedged.
    const sim::Time t = scheduler.now();
    if (!events.first_hang || *events.first_hang > t) {
      events.first_hang = t;
    }
  }

  std::unordered_set<std::uint32_t> succeeded;
  for (const auto& emit : driver->vmp().emits()) {
    if (emit.code == callproc::kEmitMismatch &&
        (!events.first_fsv || emit.time < *events.first_fsv)) {
      events.first_fsv = emit.time;
    }
    if (emit.code == callproc::kEmitAllDone) {
      succeeded.insert(emit.thread);
    }
  }
  events.all_threads_succeeded = succeeded.size() == params.threads;

  PecosRunResult result;
  result.outcome = inject::classify(events);
  result.activated = events.activated;
  result.activations = injector.activations();
  result.pecos_detections = driver->pecos_detections();
  result.crashed = driver->crashed();
  result.audit_findings = stack.oracle().audit_findings();
  result.hung_threads = driver->hung_threads();
  result.first_pecos_time = driver->first_pecos_time();
  if (cf_log) {
    result.cf_transitions_logged = cf_log->recorded();
  }
  if (attest_element != nullptr) {
    result.attest_slices = attest_element->slices();
    result.attest_detections = attest_element->violations();
    result.first_attest_time = attest_element->first_violation_time();
    result.max_attest_latency_us = attest_element->max_detection_latency_us();
  }
  if (healer) {
    result.heals = static_cast<std::uint32_t>(healer->heals());
    result.heal_escalations = static_cast<std::uint32_t>(healer->escalations());
  }
  result.unhealed_violation =
      heal_active && !driver->crashed() && driver->heal_pending_count() > 0;
  result.completed = driver->finished() && !driver->crashed();
  return result;
}

double CampaignCounts::coverage_percent() const {
  const std::size_t act = activated();
  if (act == 0) {
    return 0.0;
  }
  const std::size_t uncovered = count(inject::Outcome::SystemDetection) +
                                count(inject::Outcome::FailSilenceViolation) +
                                count(inject::Outcome::ClientHang);
  return 100.0 - 100.0 * static_cast<double>(uncovered) / static_cast<double>(act);
}

CampaignCounts run_pecos_campaign(PecosRunParams base, std::size_t runs_per_model) {
  struct RunSpec {
    inject::ErrorModel model;
    std::uint64_t seed;
  };
  const inject::ErrorModel models[] = {
      inject::ErrorModel::ADDIF, inject::ErrorModel::DATAIF,
      inject::ErrorModel::DATAOF, inject::ErrorModel::DATAInF};
  const std::uint64_t base_seed = base.seed;
  std::vector<RunSpec> specs;
  specs.reserve(4 * runs_per_model);
  for (const auto model : models) {
    for (std::size_t i = 0; i < runs_per_model; ++i) {
      // Seeds depend only on (base seed, model, run index) so campaigns
      // with different protection configurations inject the *same* error
      // sequences — a paired comparison across the four columns.
      std::uint64_t seed = base_seed ^ (static_cast<std::uint64_t>(model) << 32) ^
                           (i * 0x9E3779B97F4A7C15ull);
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      specs.push_back({model, seed});
    }
  }

  CampaignOptions options;
  options.label = "pecos campaign";
  const std::vector<inject::Outcome> outcomes = run_campaign(
      specs.size(),
      [&](std::size_t i) {
        PecosRunParams params = base;
        params.injector.model = specs[i].model;
        params.seed = specs[i].seed;
        return run_pecos_single(params).outcome;
      },
      options);

  CampaignCounts counts;
  for (const inject::Outcome outcome : outcomes) {
    counts.add(outcome);
  }
  return counts;
}

}  // namespace wtc::experiments
