// The two paper-campaign workloads.
//
// t3_audit_campaign  Table 3 at paper scale: Table-2 parameters, both arms
//                    (audits off, audits on), 30 runs x 2000 simulated s
//                    per arm. The sim kernel, the native call client, the
//                    oracle hooks on every read and write, and the periodic
//                    full audit passes do the work on a ~76-record database.
// t8_pecos_campaign  Table 8 directed CFI injection, 50 runs per error
//                    model, across {+-PECOS} x {+-Audit} plus one ACFA arm
//                    (PECOS + audit + CF attestation + healing). MiniVM
//                    interpretation, PECOS assertions, CF-log attestation
//                    and the healer do the work.
//
// Both run one simulation run per `run` through the same per-run entry
// points the campaign runners use (run_audit_experiment, run_pecos_single),
// with the campaign runners' own per-run seed derivations, so the whole
// campaign can be timed run by run on one thread. The arms are interleaved
// run by run, so a timed phase that ends mid-campaign keeps the arm mix.
#include <array>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "bench_util.hpp"
#include "callproc/vm_program.hpp"
#include "db/controller_schema.hpp"
#include "experiments/campaign.hpp"
#include "experiments/pecos_runner.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "pecos/plan.hpp"

namespace wtcperf {

using namespace wtc;

namespace {

constexpr std::uint64_t kTable3Seed = 20010701;  // bench::table2_params()
constexpr std::uint64_t kTable8Seed = 0xD5A12001;  // table8_directed_injection
constexpr std::size_t kTable3Runs = 30;
constexpr std::size_t kTable8RunsPerModel = 50;

/// The workload seed for benchmark seed `seed`: seed 0 is the paper's own.
std::uint64_t workload_seed(std::uint64_t paper, std::uint64_t seed) {
  return paper + seed;
}

std::uint64_t lcg(std::uint64_t seed) {
  return seed * 6364136223846793005ull + 1442695040888963407ull;
}

// ============================ t3_audit_campaign ============================

/// Table 3 as printed by table3_audit_effectiveness at the paper seed.
struct Table3Row {
  std::size_t injected, escaped, caught, no_effect;
  long setup_ms;  ///< "%.0f" of the arm's mean call setup time
};
constexpr Table3Row kGoldenTable3[2] = {
    {3000, 1082, 0, 1918, 132},   // without audits
    {3000, 407, 1877, 716, 224},  // with audits
};

std::uint64_t digest_run(const experiments::AuditRunResult& r) {
  Digest d;
  d.mix(r.oracle.injected);
  d.mix(r.oracle.escaped);
  d.mix(r.oracle.caught);
  d.mix(r.oracle.overwritten);
  d.mix(r.oracle.latent);
  for (const auto& injection : r.injections) {
    d.mix(injection.offset);
    d.mix(injection.bit);
    d.mix(static_cast<std::uint64_t>(injection.kind));
    d.mix(static_cast<std::uint64_t>(injection.fate));
    d.mix(injection.decided_at);
  }
  d.mix(r.client.calls_attempted);
  d.mix(r.client.calls_completed);
  d.mix(r.client.golden_mismatches);
  d.mix(r.client.calls_dropped);
  d.mix(static_cast<std::uint64_t>(std::llround(r.avg_setup_ms * 1e6)));
  d.mix(r.audit_cycles);
  d.mix(r.audit_findings);
  d.mix(static_cast<std::uint64_t>(r.audit_cost));
  d.mix(r.manager_restarts);
  return d.value;
}

class T3AuditCampaign final : public Workload {
 public:
  explicit T3AuditCampaign(const Options& options) : options_(options) {
    base_ = bench::table2_params();
    base_.seed = workload_seed(kTable3Seed, options.seed);
    std::uint64_t seed = base_.seed;
    for (std::size_t i = 0; i < kTable3Runs; ++i) {
      seed = lcg(seed);  // run_audit_series' per-run seed chain
      specs_.push_back({false, seed});
      specs_.push_back({true, seed});
    }
  }

  const char* run_unit() const override { return "simulation run (2000 sim s)"; }
  const char* op_unit() const override { return "sim event"; }
  bool fails_per_op() const override { return false; }
  int setup_repeats() const override { return 21; }

  // The timed runs do not use this database: run_audit_experiment builds
  // its own inside every run (and that construction is in the run's wall).
  // setup_s here is a stand-in for the per-run construction, timed apart so
  // a change to it shows on its own; region_bytes reads the result.
  void setup() override {
    database_ = db::make_controller_database(base_.schema);
    (void)db::resolve_controller_ids(database_->schema());
  }

  void prepare() override {
    for (const Spec& spec : specs_) {
      obs::Recorder recorder;
      experiments::AuditRunResult result;
      {
        obs::ScopedRecorder scoped(recorder);
        result = experiments::run_audit_experiment(params(spec));
      }
      reference_.push_back(digest_run(result));
      events_.push_back(static_cast<double>(
          recorder.snapshot().counter(obs::Counter::sched_events_fired)));
      if (spec.audits) {
        setup_with_audits_.add(result.avg_setup_ms);
      }
      reference_results_.push_back(std::move(result));
    }
  }

  RunSample run_next(SpanLog* spans) override {
    const std::size_t i = next_;
    next_ = (next_ + 1) % specs_.size();
    RunSample sample;
    sample.slot = i;
    sample.ops = events_[i];
    try {
      experiments::AuditRunResult result;
      const auto start = Clock::now();
      {
        Span span(spans, "experiments.run_audit_experiment");
        result = experiments::run_audit_experiment(params(specs_[i]));
      }
      sample.wall_s = elapsed_s(start);
      if (const std::string why = check_run(specs_[i], result); !why.empty()) {
        sample.ok = false;
        sample.failure = why;
      } else if (digest_run(result) != reference_[i]) {
        sample.ok = false;
        sample.failure = "run " + std::to_string(i) + " differs from its reference";
      }
      if (spans != nullptr) {
        traced_calls_ += static_cast<double>(result.client.calls_attempted);
        traced_injections_ += static_cast<double>(result.oracle.injected);
      }
    } catch (const std::exception& error) {
      sample.ok = false;
      sample.failure = error.what();
    }
    return sample;
  }

  bool at_pass_end() const override { return next_ == 0; }

  std::vector<std::string> final_checks() override {
    std::vector<std::string> failures;
    // The library's own series runner must agree with the run-by-run
    // reference pass at this seed ...
    const auto rows = series(base_.seed);
    for (int arm = 0; arm < 2; ++arm) {
      Table3Row mine{0, 0, 0, 0, 0};
      common::RunningStats setup;
      for (auto i = static_cast<std::size_t>(arm); i < reference_results_.size(); i += 2) {
        const auto& r = reference_results_[i];
        mine.injected += r.oracle.injected;
        mine.escaped += r.oracle.escaped;
        mine.caught += r.oracle.caught;
        mine.no_effect += r.oracle.no_effect();
        setup.add(r.avg_setup_ms);
      }
      mine.setup_ms = std::lround(setup.mean());
      if (!same(mine, rows[static_cast<std::size_t>(arm)])) {
        failures.push_back("t3: run-by-run aggregate differs from run_audit_series");
      }
    }
    // ... and at the paper seed the series must print today's Table 3.
    const auto paper = base_.seed == kTable3Seed ? rows : series(kTable3Seed);
    for (int arm = 0; arm < 2; ++arm) {
      const Table3Row& got = paper[static_cast<std::size_t>(arm)];
      if (!same(got, kGoldenTable3[arm])) {
        char line[200];
        std::snprintf(line, sizeof line,
                      "t3: Table 3 %s-audit arm is %zu/%zu/%zu/%zu/%ld, golden "
                      "%zu/%zu/%zu/%zu/%ld",
                      arm == 0 ? "without" : "with", got.injected, got.escaped,
                      got.caught, got.no_effect, got.setup_ms,
                      kGoldenTable3[arm].injected, kGoldenTable3[arm].escaped,
                      kGoldenTable3[arm].caught, kGoldenTable3[arm].no_effect,
                      kGoldenTable3[arm].setup_ms);
        failures.emplace_back(line);
      }
    }
    return failures;
  }

  double region_bytes() const override {
    return static_cast<double>(database_->layout().region_size());
  }

  LayerReport layers(const obs::MetricsSnapshot& traced, std::uint64_t traced_runs,
                     SpanLog& spans) override {
    LayerValues v;
    fill_counts(v, traced, traced_runs);
    v.db_mutating_ops = v.db_writes;
    v.injections = traced_injections_ / static_cast<double>(traced_runs);
    v.callproc_calls = traced_calls_ / static_cast<double>(traced_runs);
    v.callproc_modelled_setup_ms = setup_with_audits_.mean();
    run_standard_drives(v, options_, spans);
    v.db_ops = drive_db_ops(options_.seed, spans);
    v.oplog = drive_oplog(options_, spans);

    // Audit techniques on this workload's own database: the final region
    // of a clean (injection-free) run at this seed.
    auto database = live_controller_database(options_.seed);
    v.audit = time_audit(*database, base_.audit.engine, spans);

    LayerReport report;
    if (v.audit.findings != 0) {
      report.failures.push_back("t3: audit flagged a clean run's final region");
    }
    report.metrics = layer_metrics(v);
    report.notes = audit_report(v.audit);
    report.accounted_ns =
        v.sim_events_per_run * static_cast<double>(traced_runs) * v.sim_ns_per_event +
        v.oracle_calls_per_run * static_cast<double>(traced_runs) * v.oracle_ns_per_call +
        v.audit_passes * static_cast<double>(traced_runs) * v.audit.cycle_ms * 1e6;
    return report;
  }

 private:
  struct Spec {
    bool audits;
    std::uint64_t seed;
  };

  experiments::AuditRunParams params(const Spec& spec) const {
    auto p = base_;
    p.audits_enabled = spec.audits;
    p.seed = spec.seed;
    return p;
  }

  /// Seed-independent properties of one Table-3 run.
  static std::string check_run(const Spec& spec,
                               const experiments::AuditRunResult& r) {
    if (!spec.audits && (r.oracle.caught != 0 || r.audit_cycles != 0)) {
      return "audits-off run reports audit activity";
    }
    if (spec.audits && r.audit_cycles == 0) {
      return "audits-on run ran no audit cycle";
    }
    if (r.oracle.injected == 0 || r.client.calls_attempted == 0) {
      return "run injected nothing or attempted no call";
    }
    return {};
  }

  static bool same(const Table3Row& a, const Table3Row& b) {
    return a.injected == b.injected && a.escaped == b.escaped &&
           a.caught == b.caught && a.no_effect == b.no_effect &&
           a.setup_ms == b.setup_ms;
  }

  std::array<Table3Row, 2> series(std::uint64_t seed) const {
    std::array<Table3Row, 2> rows{};
    for (int arm = 0; arm < 2; ++arm) {
      auto p = base_;
      p.seed = seed;
      p.audits_enabled = arm == 1;
      const auto agg = experiments::run_audit_series(p, kTable3Runs);
      rows[static_cast<std::size_t>(arm)] = {agg.injected, agg.escaped, agg.caught,
                                             agg.no_effect,
                                             std::lround(agg.setup_ms.mean())};
    }
    return rows;
  }

  Options options_;
  experiments::AuditRunParams base_;
  std::vector<Spec> specs_;
  std::vector<std::uint64_t> reference_;
  std::vector<experiments::AuditRunResult> reference_results_;
  std::vector<double> events_;
  common::RunningStats setup_with_audits_;
  std::unique_ptr<db::Database> database_;
  std::size_t next_ = 0;
  double traced_calls_ = 0.0;
  double traced_injections_ = 0.0;
};

// ============================ t8_pecos_campaign ============================

constexpr std::size_t kConfigs = 5;
constexpr const char* kConfigNames[kConfigs] = {
    "-PECOS -Audit", "-PECOS +Audit", "+PECOS -Audit", "+PECOS +Audit",
    "ACFA (+PECOS +Audit +attest +heal)"};

/// Table 8's outcome counts at the paper seed, per configuration, in
/// inject::Outcome order (the four table columns, then the ACFA arm).
using OutcomeCounts = std::array<std::size_t, inject::kOutcomeCount>;
constexpr OutcomeCounts kGoldenTable8[kConfigs] = {
    {{79, 74, 0, 0, 35, 0, 12}},
    {{79, 72, 0, 2, 35, 0, 12}},
    {{79, 62, 42, 0, 7, 0, 10}},
    {{79, 61, 42, 1, 7, 0, 10}},
    {{79, 61, 42, 1, 7, 0, 10}},
};

experiments::PecosRunParams config_params(std::size_t config) {
  experiments::PecosRunParams p;
  p.cfc = config >= 2 ? experiments::CfcMode::Pecos : experiments::CfcMode::None;
  p.audit = config == 1 || config >= 3;
  p.cf_attest = config == 4;
  p.heal = config == 4;
  p.injector.target = inject::InjectTarget::DirectedCFI;
  return p;
}

std::uint64_t digest_run(const experiments::PecosRunResult& r) {
  Digest d;
  d.mix(static_cast<std::uint64_t>(r.outcome));
  d.mix(r.activations);
  d.mix(r.pecos_detections);
  d.mix(r.crashed);
  d.mix(r.audit_findings);
  d.mix(r.hung_threads);
  d.mix(r.cf_transitions_logged);
  d.mix(r.attest_slices);
  d.mix(r.attest_detections);
  d.mix(r.max_attest_latency_us);
  d.mix(r.heals);
  d.mix(r.heal_escalations);
  d.mix(r.completed);
  return d.value;
}

class T8PecosCampaign final : public Workload {
 public:
  explicit T8PecosCampaign(const Options& options) : options_(options) {
    base_seed_ = workload_seed(kTable8Seed, options.seed);
    for (std::size_t i = 0; i < kTable8RunsPerModel; ++i) {
      for (const auto model : kModels) {
        for (std::size_t config = 0; config < kConfigs; ++config) {
          specs_.push_back({config, model, run_seed(base_seed_, model, i)});
        }
      }
    }
  }

  const char* run_unit() const override { return "simulation run (PECOS campaign)"; }
  const char* op_unit() const override { return "sim event"; }
  bool fails_per_op() const override { return false; }
  int setup_repeats() const override { return 21; }

  // As for Table 3: run_pecos_single rebuilds the database, the call
  // program and its PECOS instrumentation inside every run, so setup_s is a
  // stand-in for that per-run construction, which the run wall also holds.
  void setup() override {
    database_ = db::make_controller_database();
    callproc::VmProgramParams params;
    params.ids = db::resolve_controller_ids(database_->schema());
    params.num_subscribers = static_cast<std::int32_t>(
        database_->schema().tables[params.ids.subscriber].num_records);
    program_ = callproc::build_call_program(params);
    (void)pecos::Plan::instrument(program_);
  }

  void prepare() override {
    for (const Spec& spec : specs_) {
      obs::Recorder recorder;
      experiments::PecosRunResult result;
      {
        obs::ScopedRecorder scoped(recorder);
        result = experiments::run_pecos_single(params(spec));
      }
      reference_.push_back(digest_run(result));
      events_.push_back(static_cast<double>(
          recorder.snapshot().counter(obs::Counter::sched_events_fired)));
      ++counts_[spec.config][static_cast<std::size_t>(result.outcome)];
    }
  }

  RunSample run_next(SpanLog* spans) override {
    const std::size_t i = next_;
    next_ = (next_ + 1) % specs_.size();
    RunSample sample;
    sample.slot = i;
    sample.ops = events_[i];
    try {
      experiments::PecosRunResult result;
      const auto start = Clock::now();
      {
        Span span(spans, "experiments.run_pecos_single");
        result = experiments::run_pecos_single(params(specs_[i]));
      }
      sample.wall_s = elapsed_s(start);
      if (specs_[i].config == 4 && result.unhealed_violation) {
        sample.ok = false;
        sample.failure = "ACFA run left a violation unhealed";
      } else if (digest_run(result) != reference_[i]) {
        sample.ok = false;
        sample.failure = "run " + std::to_string(i) + " differs from its reference";
      }
    } catch (const std::exception& error) {
      sample.ok = false;
      sample.failure = error.what();
    }
    return sample;
  }

  bool at_pass_end() const override { return next_ == 0; }

  std::vector<std::string> final_checks() override {
    std::vector<std::string> failures;
    const auto mine = campaign(base_seed_);
    for (std::size_t c = 0; c < kConfigs; ++c) {
      if (mine[c] != counts_[c]) {
        failures.push_back(std::string("t8: run-by-run outcomes differ from "
                                       "run_pecos_campaign for ") +
                           kConfigNames[c]);
      }
    }
    const auto paper = base_seed_ == kTable8Seed ? mine : campaign(kTable8Seed);
    for (std::size_t c = 0; c < kConfigs; ++c) {
      if (paper[c] != kGoldenTable8[c]) {
        std::string got;
        for (const std::size_t n : paper[c]) {
          got += std::to_string(n) + " ";
        }
        failures.push_back(std::string("t8: Table 8 counts for ") + kConfigNames[c] +
                           " are " + got + "(golden differs)");
      }
    }
    return failures;
  }

  double region_bytes() const override {
    return static_cast<double>(database_->layout().region_size());
  }

  LayerReport layers(const obs::MetricsSnapshot& traced, std::uint64_t traced_runs,
                     SpanLog& spans) override {
    LayerValues v;
    fill_counts(v, traced, traced_runs);
    v.db_mutating_ops = v.db_writes;
    // Calls the MiniVM client is asked to make per run: threads x calls
    // per thread.
    const experiments::PecosRunParams defaults;
    v.callproc_calls = defaults.threads * static_cast<double>(defaults.calls_per_thread);
    run_standard_drives(v, options_, spans);
    v.db_ops = drive_db_ops(options_.seed, spans);
    v.oplog = drive_oplog(options_, spans);
    // The MiniVM client runs on the default controller database.
    auto database = db::make_controller_database();
    v.audit = time_audit(*database, audit::EngineConfig{}, spans);

    LayerReport report;
    if (v.audit.findings != 0) {
      report.failures.push_back("t8: audit flagged a pristine database");
    }
    report.metrics = layer_metrics(v);
    report.notes = audit_report(v.audit);
    report.accounted_ns =
        v.sim_events_per_run * static_cast<double>(traced_runs) * v.sim_ns_per_event +
        (v.pecos_checks * v.pecos_ns_per_check +
         v.pecos_cf_transitions * v.cf_log_ns_per_record) *
            static_cast<double>(traced_runs);
    return report;
  }

 private:
  static constexpr std::array<inject::ErrorModel, 4> kModels = {
      inject::ErrorModel::ADDIF, inject::ErrorModel::DATAIF,
      inject::ErrorModel::DATAOF, inject::ErrorModel::DATAInF};

  struct Spec {
    std::size_t config;
    inject::ErrorModel model;
    std::uint64_t seed;
  };

  /// run_pecos_campaign's per-run seed: a function of (base, model, run).
  static std::uint64_t run_seed(std::uint64_t base, inject::ErrorModel model,
                                std::size_t i) {
    return lcg(base ^ (static_cast<std::uint64_t>(model) << 32) ^
               (i * 0x9E3779B97F4A7C15ull));
  }

  static experiments::PecosRunParams params(const Spec& spec) {
    auto p = config_params(spec.config);
    p.injector.model = spec.model;
    p.seed = spec.seed;
    return p;
  }

  static std::array<OutcomeCounts, kConfigs> campaign(std::uint64_t seed) {
    std::array<OutcomeCounts, kConfigs> counts{};
    for (std::size_t c = 0; c < kConfigs; ++c) {
      auto p = config_params(c);
      p.seed = seed;
      counts[c] = experiments::run_pecos_campaign(p, kTable8RunsPerModel).by_outcome;
    }
    return counts;
  }

  Options options_;
  std::uint64_t base_seed_ = 0;
  std::vector<Spec> specs_;
  std::vector<std::uint64_t> reference_;
  std::vector<double> events_;
  std::array<OutcomeCounts, kConfigs> counts_{};
  std::unique_ptr<db::Database> database_;
  vm::Program program_;
  std::size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_t3_audit_campaign(const Options& options) {
  return std::make_unique<T3AuditCampaign>(options);
}

std::unique_ptr<Workload> make_t8_pecos_campaign(const Options& options) {
  return std::make_unique<T8PecosCampaign>(options);
}

}  // namespace wtcperf
