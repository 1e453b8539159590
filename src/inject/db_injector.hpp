// Software-implemented error injection into the database region (§5.1).
//
// Flips random bits at configurable inter-arrival times, reproducing the
// paper's experiments: fixed-rate random bit errors for the Table-3/Figure-3
// audit-effectiveness runs, and the two Figure-5/6 error models — uniform
// over all memory locations (transient hardware / environment errors) and
// proportional to table access frequency (software bugs / runtime anomaly).
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "db/database.hpp"
#include "inject/oracle.hpp"
#include "sim/node.hpp"

namespace wtc::inject {

/// Spatial distribution of injected errors (Figure 5 vs Figure 6).
enum class ErrorDistribution : std::uint8_t {
  UniformWholeRegion,    ///< every byte equally likely (catalog included)
  UniformDataOnly,       ///< every table byte equally likely
  ProportionalToAccess,  ///< table chosen by access frequency, byte uniform within
};

/// Temporal distribution of injections.
enum class ArrivalModel : std::uint8_t {
  Fixed,        ///< exactly every `inter_arrival`
  Exponential,  ///< exponential with mean `inter_arrival` (Table 5)
  /// Bursts: errors arrive in clusters — several flips close together in
  /// time AND space, then a long quiet gap. This is the "temporal locality
  /// of data errors" the paper's error-history prioritization criterion
  /// assumes (§4.4.1): software bugs and runtime anomalies rarely flip one
  /// isolated bit.
  Bursty,
};

struct DbInjectorConfig {
  sim::Duration inter_arrival = 20 * static_cast<sim::Duration>(sim::kSecond);
  ArrivalModel arrival = ArrivalModel::Fixed;
  ErrorDistribution distribution = ErrorDistribution::UniformWholeRegion;

  /// Whether flips go through the database store (visible to write-time
  /// dirty tracking, like the wild writes of a faulty software component —
  /// the dominant corruption source the paper measured) or are planted in
  /// raw memory, bypassing the store (hardware upsets). The incremental
  /// audit's periodic full sweep exists for the bypass case; the
  /// incremental-audit ablation measures its escape rate under both.
  bool through_store = true;

  // --- Bursty arrival shape ---
  /// Flips per burst (uniform in [1, burst_size]).
  std::uint32_t burst_size = 6;
  /// All flips of a burst land within this byte radius of the first.
  std::size_t burst_radius = 64;
};

class DbErrorInjector final : public sim::Process {
 public:
  DbErrorInjector(db::Database& db, CorruptionOracle& oracle, common::Rng rng,
                  DbInjectorConfig config);

  void on_start() override;

  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }

  /// Performs one bit flip immediately (also used by tests / quickstart).
  void inject_once();

 private:
  void schedule_next();
  void run_burst(std::uint64_t remaining);
  void inject_at(std::size_t offset);
  [[nodiscard]] std::size_t pick_offset();

  static constexpr std::size_t kNoAnchor = static_cast<std::size_t>(-1);
  std::size_t burst_anchor_ = kNoAnchor;

  db::Database& db_;
  CorruptionOracle& oracle_;
  common::Rng rng_;
  DbInjectorConfig config_;
  std::uint64_t injected_ = 0;
};

}  // namespace wtc::inject
