// The sharded-database workload.
//
// shard_1m  A15-shaped: 4 shards at Table-5 scale 6400 (1,043,200 records)
//           on one host thread. A seeded 2M-op plan of alloc / free / move
//           / write_fld / read_rec through ShardedDbApi, with cross-shard
//           transfers at the end of every 8192-op round, plus a fixed two
//           full ShardedController::run_audit_cycles(1) per pass. It is the
//           only workload whose region exceeds per-core L2, so it is where
//           the shadow-index splice works on large member sets and where
//           O(table) rebuild or relink paths show.
//
// A run is one round (its ops, its transfers, and the audit cycle that
// follows it, if any). Each pass over the plan starts from a fresh
// database. The plan generator is capacity-aware against the 4-shard
// layout (no alloc or transfer target ever finds its shard-table over 80%
// full), so every op's result is a function of the plan alone and a
// single-shard serial run of the same plan is an exact oracle.
#include <array>
#include <cstdio>
#include <stdexcept>

#include "common/rng.hpp"
#include "db/controller_schema.hpp"
#include "db/shard_router.hpp"
#include "experiments/sharded_controller.hpp"
#include "harness.hpp"
#include "layers.hpp"

namespace wtcperf {

using namespace wtc;

namespace {

/// A15's plan seed: benchmark seed 0 generates A15's own plan.
constexpr std::uint64_t kA15Seed = 0xA15DBC0DEull;
constexpr std::size_t kTables = 6;  // the Table-5 bench schema
constexpr std::array<db::RecordIndex, kTables> kRatio = {7, 18, 1, 125, 8, 4};

struct Op {
  enum class Kind : std::uint8_t { Alloc, Free, Move, WriteFld, ReadRec, Transfer };
  Kind kind = Kind::Alloc;
  db::TableId table = 0;
  std::uint32_t group = db::kGroupActiveCalls;
  db::SubscriberKey key = 0;
  db::SubscriberKey key2 = 0;  ///< transfer target
  std::int32_t value = 0;      ///< write_fld payload
};

struct Plan {
  std::vector<Op> ops;
  std::vector<std::size_t> round_end;  ///< ops[round_end[r-1], round_end[r])
  std::uint64_t keys = 0;              ///< subscriber keys are 1..keys
};

/// Round-structured plan: `round_ops` single-shard ops (40% alloc, 20%
/// free, 10% move, 20% write_fld, 10% read_rec), then ~1 cross-shard
/// transfer per 512 ops.
Plan make_plan(std::uint64_t seed, std::uint32_t shards, db::RecordIndex per_shard_scale,
               std::size_t total_ops, std::size_t round_ops) {
  Plan plan;
  const db::ShardRouter router(shards);
  std::array<std::size_t, kTables> cap{};
  std::array<std::size_t, kTables> cumulative{};
  std::size_t sum = 0;
  for (std::size_t t = 0; t < kTables; ++t) {
    cap[t] = std::max<std::size_t>(1, kRatio[t] * per_shard_scale * 8 / 10);
    sum += kRatio[t];
    cumulative[t] = sum;
  }
  plan.keys = 163ull * per_shard_scale * shards;
  const auto slot = [](db::SubscriberKey key, db::TableId t) {
    return (key - 1) * kTables + t;
  };
  std::vector<std::uint8_t> live(plan.keys * kTables, 0);
  std::vector<std::uint32_t> live_pos(plan.keys * kTables, 0);
  std::vector<std::pair<db::SubscriberKey, db::TableId>> live_list;
  std::vector<std::array<std::size_t, kTables>> shard_live(shards);
  const auto add = [&](db::SubscriberKey key, db::TableId t) {
    live[slot(key, t)] = 1;
    live_pos[slot(key, t)] = static_cast<std::uint32_t>(live_list.size());
    live_list.emplace_back(key, t);
    ++shard_live[router.shard_of(key)][t];
  };
  const auto remove = [&](db::SubscriberKey key, db::TableId t) {
    live[slot(key, t)] = 0;
    const std::uint32_t pos = live_pos[slot(key, t)];
    live_list[pos] = live_list.back();
    live_pos[slot(live_list[pos].first, live_list[pos].second)] = pos;
    live_list.pop_back();
    --shard_live[router.shard_of(key)][t];
  };
  const auto room = [&](db::SubscriberKey key, db::TableId t) {
    return live[slot(key, t)] == 0 && shard_live[router.shard_of(key)][t] < cap[t];
  };

  common::Rng rng(kA15Seed + seed);
  while (plan.ops.size() < total_ops) {
    const std::size_t body = std::min(round_ops, total_ops - plan.ops.size());
    for (std::size_t i = 0; i < body; ++i) {
      Op op;
      op.group = rng.uniform(2) == 0 ? db::kGroupActiveCalls : db::kGroupStableCalls;
      const auto kind = rng.uniform(10);
      bool emitted = false;
      if (kind <= 3 || live_list.empty()) {
        const auto draw = rng.uniform(cumulative.back());
        db::TableId t = 0;
        while (cumulative[t] <= draw) {
          ++t;
        }
        for (int attempt = 0; attempt < 8 && !emitted; ++attempt) {
          const db::SubscriberKey key = 1 + rng.uniform(plan.keys);
          if (room(key, t)) {
            op.kind = Op::Kind::Alloc;
            op.key = key;
            op.table = t;
            add(key, t);
            emitted = true;
          }
        }
      }
      if (!emitted && !live_list.empty()) {
        const auto [key, t] = live_list[rng.uniform(live_list.size())];
        op.key = key;
        op.table = t;
        if (kind <= 5) {
          op.kind = Op::Kind::Free;
          remove(key, t);
        } else if (kind == 6) {
          op.kind = Op::Kind::Move;
        } else if (kind <= 8) {
          op.kind = Op::Kind::WriteFld;
          op.value = static_cast<std::int32_t>(rng.uniform(1u << 30));
        } else {
          op.kind = Op::Kind::ReadRec;
        }
        emitted = true;
      }
      if (emitted) {
        plan.ops.push_back(op);
      }
    }
    const std::size_t handoffs = std::max<std::size_t>(1, body / 512);
    for (std::size_t i = 0; i < handoffs && !live_list.empty(); ++i) {
      const auto [key, t] = live_list[rng.uniform(live_list.size())];
      for (int attempt = 0; attempt < 8; ++attempt) {
        const db::SubscriberKey key2 = 1 + rng.uniform(plan.keys);
        if (key2 == key || !room(key2, t)) {
          continue;
        }
        Op op;
        op.kind = Op::Kind::Transfer;
        op.key = key;
        op.key2 = key2;
        op.table = t;
        op.group = rng.uniform(2) == 0 ? db::kGroupActiveCalls : db::kGroupStableCalls;
        remove(key, t);
        add(key2, t);
        plan.ops.push_back(op);
        break;
      }
    }
    plan.round_end.push_back(plan.ops.size());
  }
  return plan;
}

/// The client's map from (key, table) to the record it holds. It is the
/// benchmark's bookkeeping, not the database's: every entry an op reads
/// was written earlier in the same pass, so one map serves every pass.
using RecordMap = std::vector<db::RecordIndex>;

RecordMap make_record_map(std::uint64_t keys) { return RecordMap(keys * kTables, 0); }

/// A sharded database with its API connection, as the workload uses it.
struct ShardedFixture {
  db::ShardedDb sharded;
  db::ShardedDbApi api;

  ShardedFixture(std::uint32_t shards, db::RecordIndex per_shard_scale)
      : sharded(shards,
                [per_shard_scale](std::uint32_t) {
                  return std::make_unique<db::Database>(
                      db::make_bench_schema({.scale = per_shard_scale}));
                }),
        api(sharded, []() { return sim::Time{0}; }) {
    api.init(1);
  }

  [[nodiscard]] double region_bytes() const {
    double bytes = 0;
    for (std::uint32_t s = 0; s < sharded.shard_count(); ++s) {
      bytes += static_cast<double>(sharded.shard(s).region().size());
    }
    return bytes;
  }
};

/// Executes one op and folds its observable result into `digest`.
db::Status exec_op(const Op& op, ShardedFixture& f, RecordMap& rec, Digest& digest) {
  const std::size_t slot = (op.key - 1) * kTables + op.table;
  db::Status status = db::Status::Ok;
  switch (op.kind) {
    case Op::Kind::Alloc: {
      db::RecordIndex out = 0;
      status = f.api.alloc_rec(op.key, op.table, op.group, out);
      if (status == db::Status::Ok) {
        rec[slot] = out;
      }
      break;
    }
    case Op::Kind::Free:
      status = f.api.free_rec(op.key, op.table, rec[slot]);
      break;
    case Op::Kind::Move:
      status = f.api.move_rec(op.key, op.table, rec[slot], op.group);
      break;
    case Op::Kind::WriteFld:
      status = f.api.write_fld(op.key, op.table, rec[slot], 3, op.value);
      break;
    case Op::Kind::ReadRec: {
      std::array<std::int32_t, 4> values{};
      status = f.api.read_rec(op.key, op.table, rec[slot], values);
      for (const std::int32_t v : values) {
        digest.mix(static_cast<std::uint32_t>(v));
      }
      break;
    }
    case Op::Kind::Transfer: {
      db::RecordIndex out = 0;
      status = f.api.transfer_rec(op.key, op.key2, op.table, rec[slot], op.group, out);
      if (status == db::Status::Ok) {
        rec[(op.key2 - 1) * kTables + op.table] = out;
      }
      break;
    }
  }
  digest.mix(static_cast<std::uint64_t>(status));
  return status;
}

OpTimer& timer_for(DbOpTiming& timing, Op::Kind kind) {
  switch (kind) {
    case Op::Kind::Alloc:
      return timing.alloc;
    case Op::Kind::Free:
      return timing.free;
    case Op::Kind::Move:
      return timing.move;
    case Op::Kind::WriteFld:
      return timing.write_fld;
    case Op::Kind::ReadRec:
      return timing.read_rec;
    case Op::Kind::Transfer:
      break;
  }
  return timing.transfer;
}

constexpr std::uint32_t kShards = 4;
constexpr db::RecordIndex kPerShardScale = 1600;  // 6400 in total
constexpr std::size_t kPlanOps = 2000000;
constexpr std::size_t kRoundOps = 8192;
/// Every 16th op is timed on its own for the latency percentile.
constexpr std::size_t kLatencyStride = 16;

experiments::ShardedControllerConfig controller_config() {
  experiments::ShardedControllerConfig config;
  config.audit.periodic_enabled = false;  // cycles run explicitly
  config.audit.engine.incremental = false;
  return config;
}

class Shard1m final : public Workload {
 public:
  explicit Shard1m(const Options& options)
      : options_(options),
        plan_(make_plan(options.seed, kShards, kPerShardScale, kPlanOps, kRoundOps)),
        rec_(make_record_map(plan_.keys)) {
    const std::size_t rounds = plan_.round_end.size();
    audit_after_ = {rounds / 2 - 1, rounds - 1};
    round_digest_.assign(rounds, 0);
  }

  const char* run_unit() const override { return "plan round (8192 ops + handoffs)"; }
  const char* op_unit() const override { return "API op"; }
  bool fails_per_op() const override { return true; }
  int setup_repeats() const override { return 1; }

  void setup() override {
    controller_.reset();
    fixture_.reset();
    fixture_ = std::make_unique<ShardedFixture>(kShards, kPerShardScale);
    controller_ = std::make_unique<experiments::ShardedController>(fixture_->sharded,
                                                                   controller_config());
  }

  void prepare() override {}

  RunSample run_next(SpanLog* spans) override {
    if (round_ == plan_.round_end.size()) {  // a new pass, on a fresh set-up
      pass_digests_.push_back(pass_digest_.value);
      pass_digest_ = Digest{};
      round_ = 0;
    }
    const std::size_t r = round_++;
    const std::size_t begin = r == 0 ? 0 : plan_.round_end[r - 1];
    const std::size_t end = plan_.round_end[r];
    RunSample sample;
    sample.slot = r;
    sample.ops = static_cast<double>(end - begin);
    sample.op_us.reserve((end - begin) / kLatencyStride + 1);
    Digest digest;
    std::size_t failed_ops = 0;
    const auto start = Clock::now();
    {
      Span round_span(spans, "db.round");
      for (std::size_t i = begin; i < end; ++i) {
        const Op& op = plan_.ops[i];
        db::Status status = db::Status::Ok;
        if (spans != nullptr) {
          const auto t0 = Clock::now();
          status = exec_op(op, *fixture_, rec_, digest);
          timer_for(traced_ops_, op.kind).add(elapsed_ns(t0));
        } else if (i % kLatencyStride == 0) {
          const auto t0 = Clock::now();
          status = exec_op(op, *fixture_, rec_, digest);
          sample.op_us.push_back(elapsed_ns(t0) * 1e-3);
        } else {
          status = exec_op(op, *fixture_, rec_, digest);
        }
        failed_ops += status != db::Status::Ok;
      }
      if (r == audit_after_[0] || r == audit_after_[1]) {
        Span span(spans, "experiments.run_audit_cycles");
        const auto t0 = Clock::now();
        controller_->run_audit_cycles(1);
        if (spans != nullptr) {
          traced_audit_ns_ += elapsed_ns(t0);
        }
        for (std::uint32_t s = 0; s < kShards; ++s) {
          if (!controller_->findings(s).empty()) {
            sample.ok = false;
            sample.failure = "audit cycle flagged a clean shard";
          }
        }
      }
    }
    sample.wall_s = elapsed_s(start);
    pass_digest_.mix(digest.value);
    if (round_digest_[r] == 0) {
      round_digest_[r] = digest.value;
    } else if (round_digest_[r] != digest.value) {
      sample.ok = false;
      sample.failure = "round " + std::to_string(r) + " differs from the first pass";
    }
    if (failed_ops != 0) {
      sample.ok = false;
      sample.failure = std::to_string(failed_ops) + " ops failed in round " +
                       std::to_string(r);
    }
    return sample;
  }

  bool at_pass_end() const override { return round_ == plan_.round_end.size(); }

  std::vector<std::string> final_checks() override {
    std::vector<std::string> failures;
    if (round_ == plan_.round_end.size()) {  // the last pass, not yet folded in
      pass_digests_.push_back(pass_digest_.value);
    }
    if (pass_digests_.empty()) {
      failures.emplace_back("shard_1m: no complete pass over the plan");
      return failures;
    }
    // The same plan, serially, on one shard holding the whole database.
    ShardedFixture oracle(1, kShards * kPerShardScale);
    RecordMap oracle_rec = make_record_map(plan_.keys);
    Digest pass;
    for (std::size_t r = 0; r < plan_.round_end.size(); ++r) {
      Digest digest;
      for (std::size_t i = r == 0 ? 0 : plan_.round_end[r - 1]; i < plan_.round_end[r];
           ++i) {
        (void)exec_op(plan_.ops[i], oracle, oracle_rec, digest);
      }
      pass.mix(digest.value);
    }
    for (const std::uint64_t d : pass_digests_) {
      if (d != pass.value) {
        failures.emplace_back("shard_1m: pass digest differs from the single-shard "
                              "serial oracle");
        break;
      }
    }
    return failures;
  }

  double region_bytes() const override { return fixture_->region_bytes(); }

  LayerReport layers(const obs::MetricsSnapshot& traced, std::uint64_t traced_runs,
                     SpanLog& spans) override {
    LayerValues v;
    fill_counts(v, traced, traced_runs);
    // The shard controllers meter into recorders of their own, and each
    // pass builds a fresh controller: the current one holds one pass.
    const obs::MetricsSnapshot audits = controller_->merged_shard_metrics();
    const auto rounds = static_cast<double>(plan_.round_end.size());
    v.audit_checks = static_cast<double>(audits.counter(obs::Counter::audit_checks)) / rounds;
    v.audit_passes = static_cast<double>(audits.counter(obs::Counter::audit_passes)) / rounds;
    v.db_ops = traced_ops_;
    v.db_mutating_ops =
        static_cast<double>(traced_ops_.mutating()) / static_cast<double>(traced_runs);
    run_standard_drives(v, options_, spans);
    v.oplog = drive_oplog(options_, spans);
    v.audit = time_audit(fixture_->sharded.shard(0), controller_config().audit.engine,
                         spans);
    LayerReport report;
    if (v.audit.findings != 0) {
      report.failures.push_back("shard_1m: audit flagged a clean shard");
    }
    report.metrics = layer_metrics(v);
    report.notes = audit_report(v.audit);
    report.accounted_ns = traced_ops_.total_ns() + traced_audit_ns_;
    return report;
  }

 private:
  Options options_;
  Plan plan_;
  RecordMap rec_;
  std::array<std::size_t, 2> audit_after_{};
  std::unique_ptr<ShardedFixture> fixture_;
  std::unique_ptr<experiments::ShardedController> controller_;
  std::size_t round_ = 0;
  Digest pass_digest_;
  std::vector<std::uint64_t> pass_digests_;
  std::vector<std::uint64_t> round_digest_;
  DbOpTiming traced_ops_;
  double traced_audit_ns_ = 0.0;
};

}  // namespace

DbOpTiming drive_db_ops(std::uint64_t seed, SpanLog& spans) {
  Span span(&spans, "db.api_drive");
  constexpr db::RecordIndex kScale = 16;
  const Plan plan = make_plan(seed, kShards, kScale, 40000, 2048);
  DbOpTiming timing;
  const auto start = Clock::now();
  do {
    ShardedFixture fixture(kShards, kScale);
    RecordMap rec = make_record_map(plan.keys);
    Digest digest;
    for (const Op& op : plan.ops) {
      const auto t0 = Clock::now();
      (void)exec_op(op, fixture, rec, digest);
      timer_for(timing, op.kind).add(elapsed_ns(t0));
    }
  } while (elapsed_s(start) < 0.05);
  return timing;
}

std::unique_ptr<Workload> make_shard_1m(const Options& options) {
  return std::make_unique<Shard1m>(options);
}

}  // namespace wtcperf
