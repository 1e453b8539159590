#include "experiments/sharded_controller.hpp"

#include <algorithm>

namespace wtc::experiments {

ShardedController::ShardedController(db::ShardedDb& db,
                                     ShardedControllerConfig config)
    : db_(db), config_(std::move(config)) {
  shards_.reserve(db_.shard_count());
  for (std::uint32_t s = 0; s < db_.shard_count(); ++s) {
    auto shard = std::make_unique<Shard>();
    Shard* raw = shard.get();
    // Construction-time obs activity (spawns, the first audit start)
    // belongs to this shard's recorder, same as all later activity.
    obs::ScopedRecorder scoped(raw->recorder);
    auto factory = [this, raw, s]() {
      raw->audit = std::make_shared<audit::AuditProcess>(
          db_.shard(s), raw->cpu, config_.audit, &raw->sink, nullptr);
      raw->audit->engine().set_shard_id(s);
      return raw->node.spawn("audit", raw->audit);
    };
    shard->managers =
        manager::spawn_manager_pair(raw->node, factory);
    // Drain the spawn-time events so the audit process exists (and its
    // engine is addressable) before the constructor returns.
    shard->scheduler.run_until(0);
    shards_.push_back(std::move(shard));
  }
}

void ShardedController::ensure_pool(std::size_t workers) {
  if (workers <= 1) {
    return;
  }
  if (!pool_ || pool_->threads() < workers - 1) {
    pool_ = std::make_unique<common::WorkerPool>(workers - 1);
  }
}

void ShardedController::fan(std::size_t workers,
                            const std::function<void(std::uint32_t)>& per_shard) {
  const std::size_t count = shards_.size();
  workers = std::clamp<std::size_t>(workers, 1, count);
  const auto job = [&](std::size_t w) {
    for (std::size_t s = w; s < count; s += workers) {
      obs::ScopedRecorder scoped(shards_[s]->recorder);
      per_shard(static_cast<std::uint32_t>(s));
    }
  };
  if (workers == 1) {
    job(0);
    return;
  }
  ensure_pool(workers);
  pool_->dispatch(workers, job);
}

void ShardedController::advance_to(sim::Time target, std::size_t workers) {
  fan(workers, [&](std::uint32_t s) { shards_[s]->scheduler.run_until(target); });
}

std::vector<sim::Duration> ShardedController::run_audit_cycles(
    std::size_t workers) {
  std::vector<sim::Duration> makespans(shards_.size(), 0);
  fan(workers, [&](std::uint32_t s) {
    auto& engine = shards_[s]->audit->engine();
    std::vector<db::TableId> order(db_.shard(s).table_count());
    for (std::size_t t = 0; t < order.size(); ++t) {
      order[t] = static_cast<db::TableId>(t);
    }
    if (config_.audit.engine.incremental) {
      engine.incremental_pass(order);
    } else {
      engine.full_pass(order);
    }
    makespans[s] = engine.last_cycle_makespan();
  });
  return makespans;
}

obs::MetricsSnapshot ShardedController::merged_shard_metrics() const {
  obs::MetricsSnapshot merged;
  for (const auto& shard : shards_) {
    merged.merge(shard->recorder.snapshot());
  }
  return merged;
}

}  // namespace wtc::experiments
