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

struct EmulatedLoadConfig {
  std::uint32_t threads = 16;                          // Table 5
  double ops_per_second_per_thread = 20.0;             // Table 5
};

class EmulatedLoadClient final : public sim::Process {
 public:
  EmulatedLoadClient(db::Database& db, sim::Cpu& cpu, common::Rng rng,
                     EmulatedLoadConfig config, db::NotificationSink* sink);

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
  EmulatedLoadConfig config_;
  db::DbApi api_;
  std::uint64_t operations_ = 0;
  bool running_ = false;
};

}  // namespace wtc::callproc
