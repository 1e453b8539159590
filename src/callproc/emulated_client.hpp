// Emulated multi-table load client for the prioritized-audit experiments
// (§5.3, Table 5): application threads issuing read/write operations
// against six tables with a fixed access-frequency ratio, "to emulate a
// varying usage rate by a call-processing client".
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "db/api.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"

namespace wtc::callproc {

class EmulatedLoadClient final : public sim::Process {
 public:
  /// Table 5: application threads and each one's operation rate.
  static constexpr std::uint32_t kThreads = 16;
  static constexpr double kOpsPerSecondPerThread = 20.0;

  EmulatedLoadClient(db::Database& db, sim::Cpu& cpu, common::Rng rng,
                     db::NotificationSink* sink);

  void on_start() override;
  void on_stopped() override;

  [[nodiscard]] std::uint64_t operations() const noexcept { return operations_; }

 private:
  void schedule_op(std::uint32_t thread);
  void do_op(std::uint32_t thread);
  [[nodiscard]] db::TableId pick_table();

  db::Database& db_;
  sim::Cpu& cpu_;
  common::Rng rng_;
  db::DbApi api_;
  std::uint64_t operations_ = 0;
  bool running_ = false;
};

}  // namespace wtc::callproc
