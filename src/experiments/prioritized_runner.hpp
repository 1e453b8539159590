// Experiment runner for the prioritized-audit assessment (§5.3,
// Figures 5 & 6): six tables with Table-5 size/access ratios, an emulated
// load client, exponential error injection under two spatial error models,
// and the periodic audit in one-table-per-tick mode — prioritized or
// round-robin.
#pragma once

#include "audit/process.hpp"
#include "common/stats.hpp"
#include "inject/db_injector.hpp"

namespace wtc::experiments {

struct PrioritizedRunParams {
  sim::Duration duration = 600 * static_cast<sim::Duration>(sim::kSecond);
  bool prioritized = true;
  /// Exponential mean time between errors (Table 5: 1, 2, 4 seconds).
  sim::Duration error_mtbf = 2 * static_cast<sim::Duration>(sim::kSecond);
  inject::ErrorDistribution distribution =
      inject::ErrorDistribution::UniformDataOnly;
  /// Temporal error process (Table 5 uses Exponential; Bursty exists for
  /// the error-history ablation).
  inject::ArrivalModel arrival = inject::ArrivalModel::Exponential;
  audit::PriorityWeights weights;
  std::uint64_t seed = 1;
};

struct PrioritizedRunResult {
  std::size_t injected = 0;
  std::size_t escaped = 0;  ///< used by the application before detection
  std::size_t caught = 0;
  double escaped_percent = 0.0;
  double detection_latency_s = 0.0;  ///< mean over caught errors
};

[[nodiscard]] PrioritizedRunResult run_prioritized_experiment(
    const PrioritizedRunParams& params);

/// Averages several seeds of the same configuration.
[[nodiscard]] PrioritizedRunResult run_prioritized_series(
    PrioritizedRunParams params, std::size_t runs);

}  // namespace wtc::experiments
