// End-to-end experiments at reduced scale: these validate that the whole
// environment — database + audit + clients + injection — reproduces the
// paper's qualitative results before the full benches run at paper scale.
#include <gtest/gtest.h>

#include "experiments/audit_runner.hpp"
#include "experiments/coverage.hpp"
#include "experiments/pecos_runner.hpp"
#include "experiments/prioritized_runner.hpp"

namespace wtc::experiments {
namespace {

AuditRunParams short_audit_params(bool audits) {
  AuditRunParams params;
  params.duration = 300 * static_cast<sim::Duration>(sim::kSecond);
  params.audits_enabled = audits;
  // Table-2 table sizes and audit cost scale: the client's Table-2 load
  // keeps most records live, so injected errors land in data the calls
  // use, and audit passes contend with call setup for the CPU.
  params.schema.process_records = 16;
  params.schema.connection_records = 16;
  params.schema.resource_records = 20;
  params.schema.config_records = 8;
  params.schema.subscriber_records = 16;
  params.audit.engine.cost_scale = 80.0;
  params.injector.inter_arrival = 4 * static_cast<sim::Duration>(sim::kSecond);
  params.audit.period = 5 * static_cast<sim::Duration>(sim::kSecond);
  params.seed = 42;
  return params;
}

TEST(AuditExperiment, AuditsCatchMostErrorsAndCutEscapes) {
  const auto without = run_audit_experiment(short_audit_params(false));
  const auto with = run_audit_experiment(short_audit_params(true));

  ASSERT_GT(without.oracle.injected, 50u);
  ASSERT_GT(with.oracle.injected, 50u);

  // Without audits nothing is ever caught.
  EXPECT_EQ(without.oracle.caught, 0u);
  EXPECT_EQ(without.audit_findings, 0u);

  // With audits the majority of errors are caught...
  EXPECT_GT(common::percent(with.oracle.caught, with.oracle.injected), 50.0);
  // ...and the escape rate drops by a large factor (63% -> 13% in the paper).
  const double escaped_without =
      common::percent(without.oracle.escaped, without.oracle.injected);
  const double escaped_with =
      common::percent(with.oracle.escaped, with.oracle.injected);
  EXPECT_LT(escaped_with, escaped_without / 2.0);
  EXPECT_GE(with.audit_cycles, 10u);
}

TEST(AuditExperiment, AuditsIncreaseSetupTime) {
  const auto without = run_audit_experiment(short_audit_params(false));
  const auto with = run_audit_experiment(short_audit_params(true));
  // Audit CPU contention + instrumented API make call setup slower
  // (Table 3: 160ms -> 270ms).
  EXPECT_GT(with.avg_setup_ms, without.avg_setup_ms * 1.05);
}

TEST(AuditExperiment, BreakdownCoversAllInjections) {
  const auto result = run_audit_experiment(short_audit_params(true));
  const auto breakdown = classify_injections(result.injections);
  EXPECT_EQ(breakdown.total(), result.oracle.injected);
  // Static and structural detections both occur and dominate escapes in
  // their categories (the paper reports 100% coverage there).
  EXPECT_GT(breakdown.static_detected + breakdown.structural_detected, 0u);
}

TEST(AuditExperiment, SeriesAggregation) {
  auto params = short_audit_params(true);
  params.duration = 100 * static_cast<sim::Duration>(sim::kSecond);
  const auto aggregate = run_audit_series(params, 3);
  EXPECT_GT(aggregate.injected, 40u);
  EXPECT_EQ(aggregate.injected,
            aggregate.escaped + aggregate.caught + aggregate.no_effect);
  EXPECT_EQ(aggregate.setup_ms.count(), 3u);
}

TEST(PrioritizedExperiment, PrioritizedAuditKeepsEscapesInCheck) {
  PrioritizedRunParams params;
  params.duration = 400 * static_cast<sim::Duration>(sim::kSecond);
  params.error_mtbf = 2 * static_cast<sim::Duration>(sim::kSecond);
  params.seed = 7;

  params.prioritized = false;
  const auto unprioritized = run_prioritized_series(params, 3);
  params.prioritized = true;
  const auto prioritized = run_prioritized_series(params, 3);

  ASSERT_GT(unprioritized.injected, 100u);
  ASSERT_GT(prioritized.injected, 100u);
  EXPECT_GT(prioritized.caught, 0u);
  EXPECT_GT(unprioritized.caught, 0u);
  // Both schedules must detect the bulk of errors; prioritization must at
  // least not make escapes materially worse (the full effect-size study is
  // bench/fig5 & fig6 at paper scale).
  EXPECT_LT(prioritized.escaped_percent, unprioritized.escaped_percent + 3.0);
  EXPECT_GT(common::percent(prioritized.caught, prioritized.injected), 25.0);
}

PecosRunParams quick_pecos(bool pecos, bool audit, inject::InjectTarget target,
                           std::uint64_t seed) {
  PecosRunParams params;
  params.cfc = pecos ? CfcMode::Pecos : CfcMode::None;
  params.audit = audit;
  params.injector.target = target;
  params.threads = 8;
  params.calls_per_thread = 1;
  params.seed = seed;
  return params;
}

TEST(PecosExperiment, DirectedCampaignShapesMatchTable8) {
  CampaignCounts with_pecos;
  CampaignCounts without_pecos;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    without_pecos.add(
        run_pecos_single(quick_pecos(false, false, inject::InjectTarget::DirectedCFI,
                                     seed))
            .outcome);
    with_pecos.add(
        run_pecos_single(quick_pecos(true, false, inject::InjectTarget::DirectedCFI,
                                     seed))
            .outcome);
  }
  // PECOS detects a large share of directed CFI errors...
  EXPECT_GT(with_pecos.count(inject::Outcome::PecosDetection), 5u);
  EXPECT_EQ(without_pecos.count(inject::Outcome::PecosDetection), 0u);
  // ...and reduces crashes (system detection).
  EXPECT_LT(with_pecos.count(inject::Outcome::SystemDetection),
            without_pecos.count(inject::Outcome::SystemDetection));
}

TEST(PecosExperiment, RunsAreDeterministicPerSeed) {
  const auto params = quick_pecos(true, false, inject::InjectTarget::Random, 99);
  const auto a = run_pecos_single(params);
  const auto b = run_pecos_single(params);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.pecos_detections, b.pecos_detections);
}

TEST(PecosExperiment, CampaignAggregatesAllModels) {
  auto params = quick_pecos(true, true, inject::InjectTarget::Random, 5);
  const auto counts = run_pecos_campaign(params, 3);
  EXPECT_EQ(counts.runs, 12u);  // 4 models x 3 runs
  std::size_t sum = 0;
  for (const auto n : counts.by_outcome) {
    sum += n;
  }
  EXPECT_EQ(sum, counts.runs);
}

/// Parameterized smoke across the full campaign matrix: every (model,
/// target, cfc, audit) combination must produce a classifiable outcome
/// deterministically.
struct MatrixCase {
  inject::ErrorModel model;
  inject::InjectTarget target;
  CfcMode cfc;
  bool audit;
};

class CampaignMatrix : public ::testing::TestWithParam<int> {};

TEST_P(CampaignMatrix, EveryConfigurationRunsAndClassifies) {
  const int index = GetParam();
  const inject::ErrorModel models[] = {
      inject::ErrorModel::ADDIF, inject::ErrorModel::DATAIF,
      inject::ErrorModel::DATAOF, inject::ErrorModel::DATAInF};
  const CfcMode cfcs[] = {CfcMode::None, CfcMode::Pecos, CfcMode::PostCheck,
                          CfcMode::Bssc};
  MatrixCase c;
  c.model = models[index % 4];
  c.target = (index / 4) % 2 == 0 ? inject::InjectTarget::DirectedCFI
                                  : inject::InjectTarget::Random;
  c.cfc = cfcs[(index / 8) % 4];
  c.audit = (index / 32) % 2 == 1;

  PecosRunParams params;
  params.cfc = c.cfc;
  params.audit = c.audit;
  params.injector.model = c.model;
  params.injector.target = c.target;
  params.threads = 4;
  params.calls_per_thread = 1;
  params.seed = 4000 + static_cast<std::uint64_t>(index);

  const auto a = run_pecos_single(params);
  const auto b = run_pecos_single(params);
  EXPECT_EQ(a.outcome, b.outcome);       // deterministic
  EXPECT_EQ(a.activations, b.activations);
  if (!a.activated) {
    EXPECT_EQ(a.outcome, inject::Outcome::NotActivated);
  }
  if (c.cfc == CfcMode::None) {
    EXPECT_EQ(a.pecos_detections, 0u);  // no checker, no detections
  }
  if (!c.audit) {
    EXPECT_EQ(a.audit_findings, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(FullMatrix, CampaignMatrix, ::testing::Range(0, 64));

TEST(Coverage, Table10MathMatchesPaperExample) {
  CoverageInputs inputs;
  inputs.client_coverage = {28.0, 33.0, 57.0, 58.0};
  inputs.db_escaped_without_audit_pct = 63.0;
  inputs.db_escaped_with_audit_pct = 13.0;
  const auto table = compute_table10(inputs, 0.25);

  EXPECT_NEAR(table.database[0], 37.0, 0.01);
  EXPECT_NEAR(table.database[1], 87.0, 0.01);
  // Paper: 0.25*28 + 0.75*37 = 34.75 ~ "35%".
  EXPECT_NEAR(table.mixed[0], 34.75, 0.01);
  // Paper: with audits only = 73%, both = 80%.
  EXPECT_NEAR(table.mixed[1], 73.5, 1.0);
  EXPECT_NEAR(table.mixed[3], 79.75, 1.0);
}

}  // namespace
}  // namespace wtc::experiments
