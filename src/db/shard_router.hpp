// Sharded multi-controller database (scaling the §3.1.2 design out).
//
// One controller's database region audits and recovers well, but a single
// region is a single audit domain: every record shares one write-generation
// clock, one dirty grid, one lock table, and one audit engine's cycle
// budget. Partitioning the catalog-described database into N shards keyed
// on subscriber gives each shard its own db::Database — region, pristine
// image, shadow indexes, dirty grid, generation clocks — plus (one layer
// up) its own audit engine and manager pair, so audit work fans out across
// cores and a fault in one shard cannot perturb another's audit latency.
//
// Three layers, all in this header:
//   * ShardRouter — pure key→shard arithmetic. Power-of-two shard counts
//     only: the route is a 64-bit mix finalizer masked to the shard count,
//     so routing is O(1) with no modulo and the mix guarantees balance
//     even for dense sequential subscriber keys.
//   * ShardedDb — owns the N Database instances and a per-shard mutex for
//     callers that route concurrently (Database itself is single-threaded
//     by design; the mutex lives here, not there, so unsharded users pay
//     nothing).
//   * ShardedDbApi — one DbApi per shard plus the subscriber-keyed
//     operation surface. Single-shard ops resolve the shard and delegate;
//     the rare cross-shard group link (a subscriber handed off between
//     shards mid-call) runs a two-shard transfer protocol with a
//     deterministic lock order — both the std::mutex pair and the table
//     locks are taken in ascending shard id, released in reverse — so
//     concurrent opposing transfers cannot deadlock.
//
// Observability: every keyed op counts db.shard_routed, every two-shard
// transfer counts db.cross_shard_links, and publish_imbalance() reports
// max/mean routed ops across shards (milli) as db.shard_imbalance.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "db/api.hpp"
#include "db/database.hpp"

namespace wtc::db {

/// The routing key: the subscriber a call-processing operation acts for.
/// Everything a subscriber owns (its records in every dynamic table) lives
/// on the shard its key routes to, which is what makes single-subscriber
/// operations single-shard.
using SubscriberKey = std::uint64_t;

/// Pure key→shard arithmetic (no storage). Stateless and cheap to copy.
class ShardRouter {
 public:
  /// Shard counts must be powers of two: shard_of masks the mixed key
  /// with (count - 1) instead of taking a modulo, so any other count
  /// would silently route everything into the low shards.
  [[nodiscard]] static constexpr bool valid_shard_count(
      std::uint32_t count) noexcept {
    return count > 0 && (count & (count - 1)) == 0;
  }

  /// Precondition: valid_shard_count(count).
  explicit ShardRouter(std::uint32_t count) noexcept : mask_(count - 1) {}

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(mask_ + 1);
  }

  /// O(1) route: splitmix64 finalizer over the key, masked to the shard
  /// count. The finalizer's avalanche spreads dense sequential subscriber
  /// ids (the realistic numbering plan) uniformly across shards.
  [[nodiscard]] std::uint32_t shard_of(SubscriberKey key) const noexcept {
    std::uint64_t x = key + 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    x ^= x >> 31;
    return static_cast<std::uint32_t>(x & mask_);
  }

 private:
  std::uint64_t mask_;
};

/// N independent Database regions plus the router that addresses them and
/// a per-shard mutex for concurrent callers. Each shard is built by the
/// caller's factory so shards can differ (or not) in schema and populate
/// function; the common case passes the same schema to every shard.
class ShardedDb {
 public:
  using ShardFactory =
      std::function<std::unique_ptr<Database>(std::uint32_t shard)>;

  /// Precondition: ShardRouter::valid_shard_count(shards). The factory is
  /// called once per shard, in shard order.
  ShardedDb(std::uint32_t shards, const ShardFactory& factory);

  ShardedDb(const ShardedDb&) = delete;
  ShardedDb& operator=(const ShardedDb&) = delete;

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }

  [[nodiscard]] Database& shard(std::uint32_t s) { return *shards_.at(s); }
  [[nodiscard]] const Database& shard(std::uint32_t s) const {
    return *shards_.at(s);
  }

  /// Serializes cross-thread access to shard `s`. Database is
  /// single-threaded by design; callers that route from several threads
  /// hold this around every touch of the shard (ShardedDbApi does when
  /// locking is enabled). Multi-shard lockers MUST take mutexes in
  /// ascending shard id.
  [[nodiscard]] std::mutex& shard_mutex(std::uint32_t s) {
    return mutexes_.at(s);
  }

  /// Shard-addressed dirty-chunk query: the shard-aware counterpart of
  /// Database::region_dirty_chunks_since. Offsets and the generation
  /// watermark are local to shard `s`'s region.
  [[nodiscard]] std::uint64_t dirty_chunks_since(std::uint32_t s,
                                                 std::size_t offset,
                                                 std::size_t len,
                                                 std::uint64_t gen) const {
    return shards_.at(s)->region_dirty_chunks_since(offset, len, gen);
  }

 private:
  ShardRouter router_;
  std::vector<std::unique_ptr<Database>> shards_;
  /// deque, not vector: std::mutex is immovable and the count is fixed at
  /// construction anyway.
  std::deque<std::mutex> mutexes_;
};

/// The subscriber-keyed API surface over a ShardedDb: one DbApi per shard
/// plus O(1) routing, optional per-shard mutual exclusion, and the
/// two-shard transfer protocol for cross-shard group links.
class ShardedDbApi {
 public:
  ShardedDbApi(ShardedDb& db, std::function<sim::Time()> clock);

  /// Opens every per-shard connection (DBinit on each shard, ascending).
  /// Returns the first non-Ok status, Ok if all succeeded.
  Status init(sim::ProcessId pid);

  /// When enabled, every keyed op holds the target shard's mutex (and a
  /// transfer holds both, ascending). Off by default: a caller that
  /// partitions work so each shard is touched by one thread at a time —
  /// the campaign's round structure — needs no locks on the op path.
  void set_locking(bool on) noexcept { locking_ = on; }
  [[nodiscard]] bool locking() const noexcept { return locking_; }

  [[nodiscard]] std::uint32_t shard_of(SubscriberKey key) const noexcept {
    return db_.router().shard_of(key);
  }
  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return db_.shard_count();
  }
  /// The shard-local handle (wire audit hooks / link mode through this).
  [[nodiscard]] DbApi& api(std::uint32_t s) { return *apis_.at(s); }

  // --- subscriber-keyed single-shard operations ---
  // Each resolves the shard in O(1), counts db.shard_routed, and delegates
  // to that shard's DbApi. Record indices are shard-local coordinates:
  // an index returned by alloc_rec(key, ...) is only meaningful together
  // with that key (or its shard id).
  Status alloc_rec(SubscriberKey key, TableId t, std::uint32_t group,
                   RecordIndex& out);
  Status free_rec(SubscriberKey key, TableId t, RecordIndex r);
  Status move_rec(SubscriberKey key, TableId t, RecordIndex r,
                  std::uint32_t target_group);
  Status read_rec(SubscriberKey key, TableId t, RecordIndex r,
                  std::span<std::int32_t> out);
  Status read_fld(SubscriberKey key, TableId t, RecordIndex r, FieldId f,
                  std::int32_t& out);
  Status write_rec(SubscriberKey key, TableId t, RecordIndex r,
                   std::span<const std::int32_t> values);
  Status write_fld(SubscriberKey key, TableId t, RecordIndex r, FieldId f,
                   std::int32_t value);

  /// Cross-shard group link: record (t, r) owned by `from_key`'s shard is
  /// handed off to `to_key`'s shard into `group` (the subscriber handoff /
  /// call-transfer case that breaks the "one subscriber, one shard"
  /// locality). Two-shard protocol, deterministic order:
  ///   1. lock both shard mutexes, ascending shard id (locking mode);
  ///   2. txn_begin(t) on both shards, ascending shard id;
  ///   3. read the source record's fields (must be active);
  ///   4. alloc a record on the target shard into `group` -> `out`;
  ///   5. write the fields into the target record;
  ///   6. free the source record;
  ///   7. txn_end / unlock in reverse order.
  /// Failure before step 6 leaves the source record intact (a failed alloc
  /// frees nothing, so there is no rollback path). When both keys route to
  /// the same shard the protocol degenerates to the single-shard sequence
  /// on one lock; db.cross_shard_links counts only true two-shard runs.
  Status transfer_rec(SubscriberKey from_key, SubscriberKey to_key, TableId t,
                      RecordIndex r, std::uint32_t group, RecordIndex& out);

  // --- routing statistics ---
  [[nodiscard]] std::uint64_t routed_ops(std::uint32_t s) const {
    return routed_ops_.at(s);
  }
  [[nodiscard]] std::uint64_t cross_shard_transfers() const noexcept {
    return cross_shard_transfers_.load(std::memory_order_relaxed);
  }
  /// Publishes the current routing skew — max(routed)/mean(routed) across
  /// shards, in milli (1000 = perfectly balanced) — as the
  /// db.shard_imbalance gauge, and returns it.
  std::uint64_t publish_imbalance();

 private:
  /// Counts the routed op and returns the shard's handle. `routed_ops_[s]`
  /// is written under the shard's mutex when locking is on; otherwise the
  /// caller owns the shard for the duration of the call (the partitioned
  /// round contract), so the plain increment is safe either way.
  DbApi& route(std::uint32_t s);

  ShardedDb& db_;
  std::vector<std::unique_ptr<DbApi>> apis_;
  std::vector<std::uint64_t> routed_ops_;
  /// Atomic: concurrent transfers over DISJOINT shard pairs share no
  /// mutex, yet both bump this. Relaxed is enough — the value is only
  /// read after the concurrent phase joins.
  std::atomic<std::uint64_t> cross_shard_transfers_{0};
  bool locking_ = false;
};

}  // namespace wtc::db
