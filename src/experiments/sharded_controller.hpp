// The sharded multi-controller deployment: one full controller stack per
// database shard.
//
// ShardedDb (db/shard_router.hpp) gives each shard its own region, dirty
// grid, and shadow indexes; this layer gives each shard the rest of the
// paper's Figure-1 stack — a simulated node with its own virtual clock, a
// CPU contention model, an audit process (whose engine runs the PR-7
// parallel/budgeted cycle configuration), and a duplicated active/standby
// manager pair supervising it. Nothing is shared between shards except
// the WorkerPool that fans their work across host cores, so:
//   * audit cycles on different shards run truly concurrently, and
//   * a fault (or overload) on one shard cannot perturb another shard's
//     audit latency, restarts, or findings — the isolation property
//     bench/ablation_sharded_db gates on.
//
// Determinism: every shard owns an obs::Recorder; whichever host worker
// advances a shard installs that shard's recorder first, so all of shard
// s's metrics land in recorder s regardless of how shards are assigned to
// workers. merged_shard_metrics() folds them in ascending shard order,
// making the merged snapshot bit-identical at any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "audit/process.hpp"
#include "common/worker_pool.hpp"
#include "db/shard_router.hpp"
#include "manager/manager.hpp"
#include "obs/metrics.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"

namespace wtc::experiments {

struct ShardedControllerConfig {
  /// Per-shard audit process configuration (engine.audit_threads,
  /// engine.cycle_budget, periodic_enabled, ... apply shard-locally).
  audit::AuditProcessConfig audit;
};

/// Findings collected from one shard's audit stack (every Finding carries
/// its shard id, stamped by the shard's engine).
class FindingLog final : public audit::ReportSink {
 public:
  void on_finding(const audit::Finding& finding) override {
    findings_.push_back(finding);
  }
  [[nodiscard]] const std::vector<audit::Finding>& findings() const noexcept {
    return findings_;
  }

 private:
  std::vector<audit::Finding> findings_;
};

class ShardedController {
 public:
  /// Builds one controller stack per shard of `db` (which must outlive
  /// this object). Spawns each shard's manager pair and audit process
  /// immediately; the shard's engine is stamped with its shard id.
  ShardedController(db::ShardedDb& db, ShardedControllerConfig config);

  ShardedController(const ShardedController&) = delete;
  ShardedController& operator=(const ShardedController&) = delete;

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }

  // --- per-shard stack access ---
  [[nodiscard]] sim::Scheduler& scheduler(std::uint32_t s) {
    return shards_.at(s)->scheduler;
  }
  [[nodiscard]] sim::Node& node(std::uint32_t s) { return shards_.at(s)->node; }
  [[nodiscard]] audit::AuditProcess& audit(std::uint32_t s) {
    return *shards_.at(s)->audit;
  }
  [[nodiscard]] audit::AuditEngine& engine(std::uint32_t s) {
    return shards_.at(s)->audit->engine();
  }
  [[nodiscard]] manager::ManagerPair& managers(std::uint32_t s) {
    return shards_.at(s)->managers;
  }
  [[nodiscard]] const std::vector<audit::Finding>& findings(
      std::uint32_t s) const {
    return shards_.at(s)->sink.findings();
  }
  [[nodiscard]] obs::Recorder& recorder(std::uint32_t s) {
    return shards_.at(s)->recorder;
  }

  /// Advances every shard's virtual clock to `target`, fanning shards
  /// across `workers` host threads (worker w handles shards w, w+workers,
  /// ... — a fixed assignment, though results do not depend on it: each
  /// shard's sim is self-contained and metered into its own recorder).
  void advance_to(sim::Time target, std::size_t workers);

  /// Runs one audit cycle (full or incremental per the engine config) on
  /// every shard over all tables in ascending order, fanned across
  /// `workers` host threads. Returns the per-shard modelled cycle
  /// makespan (engine.last_cycle_makespan()), indexed by shard — the
  /// deterministic latency signal the isolation gate compares.
  std::vector<sim::Duration> run_audit_cycles(std::size_t workers);

  /// Per-shard metric snapshots merged in ascending shard order —
  /// bit-identical for any `workers` value passed to the fan-out calls.
  [[nodiscard]] obs::MetricsSnapshot merged_shard_metrics() const;

 private:
  /// One shard's full controller stack. Address-stable (held by
  /// unique_ptr) because the audit factory closure captures it.
  struct Shard {
    Shard() : node(scheduler) {}

    sim::Scheduler scheduler;
    sim::Node node;
    sim::Cpu cpu;
    obs::Recorder recorder;
    FindingLog sink;
    std::shared_ptr<audit::AuditProcess> audit;
    manager::ManagerPair managers;
  };

  /// Fans `per_shard(s)` over all shards on `workers` host threads, with
  /// shard s's recorder installed around its call.
  void fan(std::size_t workers, const std::function<void(std::uint32_t)>& per_shard);
  void ensure_pool(std::size_t workers);

  db::ShardedDb& db_;
  ShardedControllerConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<common::WorkerPool> pool_;
};

}  // namespace wtc::experiments
