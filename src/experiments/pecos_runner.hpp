// Experiment runner for the joint PECOS + audit evaluation (§6.1.2):
// error-injection campaigns against the MiniVM call-processing client,
// Tables 8 (directed to CFIs) and 9 (random to the instruction stream),
// across the four configurations {±PECOS} x {±Audit} and the four Table-6
// error models.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "audit/process.hpp"
#include "inject/client_injector.hpp"
#include "inject/outcome.hpp"

namespace wtc::experiments {

/// Control-flow checking flavour — PECOS, the non-preemptive assertion
/// baseline, the classic embedded-signature scheme (BSSC), or none.
enum class CfcMode : std::uint8_t { None, Pecos, PostCheck, Bssc };

struct PecosRunParams {
  CfcMode cfc = CfcMode::Pecos;
  bool audit = true;
  inject::ClientInjectorConfig injector;
  std::uint32_t threads = 16;
  std::int32_t calls_per_thread = 2;
  std::uint64_t seed = 1;

  // --- ACFA extensions (PECOS/PostCheck modes only; both need the CFG
  // plan): CF-log attestation and guaranteed healing ---
  /// Stream retired control transfers into a per-thread CF log and attest
  /// them against the plan every `slice_period` (detection latency is
  /// bounded by the period; a full log forces an early slice).
  bool cf_attest = false;
  sim::Duration slice_period = 100 * static_cast<sim::Duration>(sim::kMillisecond);
  /// Route CF violations (preemptive and attested) to the active manager,
  /// whose healer restores + replays the thread's records and restarts it.
  bool heal = false;
};

struct PecosRunResult {
  inject::Outcome outcome = inject::Outcome::NotActivated;
  bool activated = false;
  std::uint64_t activations = 0;
  std::uint32_t pecos_detections = 0;
  bool crashed = false;
  std::uint64_t audit_findings = 0;
  std::uint32_t hung_threads = 0;

  // --- ACFA evidence ---
  std::uint64_t cf_transitions_logged = 0;
  std::uint64_t attest_slices = 0;
  /// Violations flagged by the attestation element (deferred detections).
  std::uint64_t attest_detections = 0;
  std::optional<sim::Time> first_pecos_time;
  std::optional<sim::Time> first_attest_time;
  /// Worst detection latency over the run's attested violations (µs).
  std::uint64_t max_attest_latency_us = 0;
  std::uint32_t heals = 0;
  std::uint32_t heal_escalations = 0;
  /// A violation was detected but its thread was never healed (healing
  /// arm only; the A13 bench asserts this never happens).
  bool unhealed_violation = false;
  /// Client ran to completion without crashing.
  bool completed = false;
};

[[nodiscard]] PecosRunResult run_pecos_single(const PecosRunParams& params);

/// One campaign: `runs_per_model` runs for each of the four error models,
/// aggregated (the paper's tables are cumulative over the error models).
struct CampaignCounts {
  std::array<std::size_t, inject::kOutcomeCount> by_outcome{};
  std::size_t runs = 0;

  void add(inject::Outcome outcome) {
    ++by_outcome[static_cast<std::size_t>(outcome)];
    ++runs;
  }
  [[nodiscard]] std::size_t count(inject::Outcome outcome) const {
    return by_outcome[static_cast<std::size_t>(outcome)];
  }
  /// Runs whose injected error was actually exercised.
  [[nodiscard]] std::size_t activated() const {
    return runs - count(inject::Outcome::NotActivated);
  }
  /// The paper's system-wide coverage formula:
  /// 100% - (SystemDetection + FailSilence + Hang)% of activated errors.
  [[nodiscard]] double coverage_percent() const;
};

[[nodiscard]] CampaignCounts run_pecos_campaign(PecosRunParams base,
                                                std::size_t runs_per_model);

}  // namespace wtc::experiments
