#include "db/shard_router.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace wtc::db {

ShardedDb::ShardedDb(std::uint32_t shards, const ShardFactory& factory)
    : router_(shards), mutexes_(shards) {
  if (!ShardRouter::valid_shard_count(shards)) {
    throw std::invalid_argument(
        "ShardedDb: shard count must be a power of two (the router masks, "
        "it does not divide)");
  }
  shards_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    shards_.push_back(factory(s));
  }
}

ShardedDbApi::ShardedDbApi(ShardedDb& db, std::function<sim::Time()> clock)
    : db_(db), routed_ops_(db.shard_count(), 0) {
  apis_.reserve(db.shard_count());
  for (std::uint32_t s = 0; s < db.shard_count(); ++s) {
    apis_.push_back(std::make_unique<DbApi>(db.shard(s), clock));
  }
}

Status ShardedDbApi::init(sim::ProcessId pid) {
  Status first = Status::Ok;
  for (auto& api : apis_) {
    if (const Status s = api->init(pid); s != Status::Ok && first == Status::Ok) {
      first = s;
    }
  }
  return first;
}

namespace {

/// Holds shard `s`'s mutex for the caller's scope when locking is on; an
/// empty (non-owning) lock otherwise.
std::unique_lock<std::mutex> maybe_lock(ShardedDb& db, std::uint32_t s,
                                        bool locking) {
  return locking ? std::unique_lock<std::mutex>(db.shard_mutex(s))
                 : std::unique_lock<std::mutex>();
}

}  // namespace

DbApi& ShardedDbApi::route(std::uint32_t s) {
  ++routed_ops_[s];
  obs::count(obs::Counter::db_shard_routed);
  return *apis_[s];
}

Status ShardedDbApi::alloc_rec(SubscriberKey key, TableId t,
                               std::uint32_t group, RecordIndex& out) {
  const std::uint32_t s = shard_of(key);
  const auto lock = maybe_lock(db_, s, locking_);
  return route(s).alloc_rec(t, group, out);
}

Status ShardedDbApi::free_rec(SubscriberKey key, TableId t, RecordIndex r) {
  const std::uint32_t s = shard_of(key);
  const auto lock = maybe_lock(db_, s, locking_);
  return route(s).free_rec(t, r);
}

Status ShardedDbApi::move_rec(SubscriberKey key, TableId t, RecordIndex r,
                              std::uint32_t target_group) {
  const std::uint32_t s = shard_of(key);
  const auto lock = maybe_lock(db_, s, locking_);
  return route(s).move_rec(t, r, target_group);
}

Status ShardedDbApi::read_rec(SubscriberKey key, TableId t, RecordIndex r,
                              std::span<std::int32_t> out) {
  const std::uint32_t s = shard_of(key);
  const auto lock = maybe_lock(db_, s, locking_);
  return route(s).read_rec(t, r, out);
}

Status ShardedDbApi::read_fld(SubscriberKey key, TableId t, RecordIndex r,
                              FieldId f, std::int32_t& out) {
  const std::uint32_t s = shard_of(key);
  const auto lock = maybe_lock(db_, s, locking_);
  return route(s).read_fld(t, r, f, out);
}

Status ShardedDbApi::write_rec(SubscriberKey key, TableId t, RecordIndex r,
                               std::span<const std::int32_t> values) {
  const std::uint32_t s = shard_of(key);
  const auto lock = maybe_lock(db_, s, locking_);
  return route(s).write_rec(t, r, values);
}

Status ShardedDbApi::write_fld(SubscriberKey key, TableId t, RecordIndex r,
                               FieldId f, std::int32_t value) {
  const std::uint32_t s = shard_of(key);
  const auto lock = maybe_lock(db_, s, locking_);
  return route(s).write_fld(t, r, f, value);
}

Status ShardedDbApi::transfer_rec(SubscriberKey from_key, SubscriberKey to_key,
                                  TableId t, RecordIndex r, std::uint32_t group,
                                  RecordIndex& out) {
  const std::uint32_t s_from = shard_of(from_key);
  const std::uint32_t s_to = shard_of(to_key);
  const std::uint32_t lo = std::min(s_from, s_to);
  const std::uint32_t hi = std::max(s_from, s_to);

  // Deterministic lock order: shard mutexes ascending (unique_lock members
  // release in reverse declaration order), then table locks ascending.
  // Every multi-shard locker in the process follows the same ascending
  // rule, so two opposing transfers — (a->b) racing (b->a) — serialize
  // on shard min(a,b) instead of deadlocking.
  const auto lock_lo = maybe_lock(db_, lo, locking_);
  const auto lock_hi =
      hi != lo ? maybe_lock(db_, hi, locking_) : std::unique_lock<std::mutex>();

  if (const Status s = apis_[lo]->txn_begin(t); s != Status::Ok) {
    return s;
  }
  if (hi != lo) {
    if (const Status s = apis_[hi]->txn_begin(t); s != Status::Ok) {
      apis_[lo]->txn_end(t);
      return s;
    }
  }
  const auto unlock_tables = [&] {
    if (hi != lo) {
      apis_[hi]->txn_end(t);
    }
    apis_[lo]->txn_end(t);
  };

  // Read the source record's fields. Any failure here (wrong index, freed
  // record) aborts with nothing written on either shard.
  const auto num_fields = db_.shard(s_from).layout().table(t).num_fields;
  std::vector<std::int32_t> fields(num_fields, 0);
  DbApi& src = route(s_from);
  DbApi& dst = s_to == s_from ? src : route(s_to);
  if (const Status s = src.read_rec(t, r, fields); s != Status::Ok) {
    unlock_tables();
    return s;
  }

  // Allocate on the target shard BEFORE freeing the source: a full target
  // (NoFreeRecord) aborts the transfer with the source record untouched,
  // so there is no rollback path to get wrong.
  RecordIndex dst_r = 0;
  if (const Status s = dst.alloc_rec(t, group, dst_r); s != Status::Ok) {
    unlock_tables();
    return s;
  }
  if (const Status s = dst.write_rec(t, dst_r, fields); s != Status::Ok) {
    unlock_tables();
    return s;
  }
  if (const Status s = src.free_rec(t, r); s != Status::Ok) {
    unlock_tables();
    return s;
  }
  out = dst_r;
  if (s_from != s_to) {
    cross_shard_transfers_.fetch_add(1, std::memory_order_relaxed);
    obs::count(obs::Counter::db_cross_shard_links);
  }
  unlock_tables();
  return Status::Ok;
}

std::uint64_t ShardedDbApi::publish_imbalance() {
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (const std::uint64_t ops : routed_ops_) {
    total += ops;
    peak = std::max(peak, ops);
  }
  if (total == 0) {
    return 0;
  }
  // max / mean in milli: mean = total / N, so the ratio is peak * N / total.
  const std::uint64_t imbalance = peak * 1000 * routed_ops_.size() / total;
  obs::gauge_max(obs::Gauge::db_shard_imbalance, imbalance);
  return imbalance;
}

}  // namespace wtc::db
