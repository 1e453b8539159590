// Ablation A15: sharded multi-controller database — near-linear campaign
// scaling with per-op and per-region equivalence to the unsharded system.
//
// The database is partitioned into N shards hashed on subscriber key
// (db/shard_router.hpp): each shard owns its own region, dirty grid,
// shadow indexes, and (one layer up) audit engine. This bench drives a
// Table-5-ratio campaign — millions of subscriber-keyed call operations
// with a small fraction of cross-shard handoffs — through three arms over
// the SAME generated op plan:
//
//   serial-1    one shard holding the whole database, ops in plan order
//               (the unsharded baseline the scaling gate divides by)
//   serial-N    N shards, ops in plan order on one thread (the oracle:
//               the parallel arm must reproduce its regions byte-for-byte)
//   parallel-N  N shards, each round's single-shard ops fanned across N
//               workers (one per shard) via common::WorkerPool, round-end
//               cross-shard transfers run serially in plan order
//
// The plan is round-structured by construction: a round is a batch of
// single-shard ops (ops on different shards touch disjoint state, so
// fanning them preserves each shard's op subsequence) followed by the
// round's transfers. The generator is capacity-aware against the N-shard
// layout — no op's status ever depends on arm or timing — so all three
// arms must produce identical per-op results, and serial-N / parallel-N
// identical per-shard region images.
//
// Gates (all must hold; nonzero exit otherwise):
//   results   per-op digests (status + values read) identical across arms
//   regions   per-shard memcmp(serial-N, parallel-N) == 0
//   scaling   ops/s(parallel-N) >= (min-scaling-pct/100) * E * ops/s(serial-1)
//             where E = min(N, hardware cores) is the parallelism the host
//             can actually deliver (a >=N-core runner demands the full
//             near-linear 0.8*N; a 1-core host demands no regression)
//   isolation driving shard 0 at 2x write overload must not raise any
//             OTHER shard's modelled incremental audit-cycle makespan by
//             more than 10% (per-shard engines share nothing, so the
//             deterministic makespans must be untouched)
//
// Flags: --shards=N          shard count, power of two      (default 4)
//        --scale=N           TOTAL Table-5 scale, so the database holds
//                            163*N records split across shards; must be
//                            divisible by --shards            (default 6400
//                            = 1,043,200 records at 4 shards)
//        --ops=N             campaign single-shard ops        (default 2000000)
//        --round-ops=N       ops per round between transfer barriers
//                                                             (default 8192)
//        --min-scaling-pct=P scaling gate percentage          (default 80)
//        --json=PATH         (default BENCH_sharded_db.json)
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table_printer.hpp"
#include "common/worker_pool.hpp"
#include "db/controller_schema.hpp"
#include "db/shard_router.hpp"
#include "experiments/sharded_controller.hpp"
#include "obs/capture.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"

using namespace wtc;

namespace {

constexpr std::uint64_t kSeed = 0xA15DBC0DEull;
constexpr std::size_t kTables = 6;  // the Table-5 bench schema is fixed
constexpr std::array<db::RecordIndex, kTables> kRatio = {7, 18, 1, 125, 8, 4};

// --- the shared op plan ---

struct Op {
  enum class Kind : std::uint8_t { Alloc, Free, Move, WriteFld, ReadRec, Transfer };
  Kind kind = Kind::Alloc;
  db::SubscriberKey key = 0;
  db::SubscriberKey key2 = 0;  ///< transfer target subscriber
  db::TableId table = 0;
  std::uint32_t group = db::kGroupActiveCalls;
  std::int32_t value = 0;  ///< WriteFld payload value
};

struct Plan {
  struct Round {
    std::size_t begin = 0;
    std::size_t transfer_begin = 0;
    std::size_t end = 0;
  };
  std::vector<Op> ops;  ///< global order: per round, body then transfers
  std::vector<Round> rounds;
  std::uint64_t keys = 0;  ///< subscriber keys are 1..keys
  std::size_t transfers = 0;
};

/// Generates the round-structured campaign. Capacity-aware against the
/// N-shard layout: an alloc (or transfer target) is only emitted while
/// the destination shard-table holds under 80% of its records, so no op
/// in any arm can hit NoFreeRecord — op results are functions of the plan
/// alone.
Plan make_plan(std::uint32_t shards, db::RecordIndex per_shard_scale,
               std::size_t total_ops, std::size_t round_ops) {
  Plan plan;
  const db::ShardRouter router(shards);
  std::array<std::size_t, kTables> cap{};
  for (std::size_t t = 0; t < kTables; ++t) {
    cap[t] = std::max<std::size_t>(
        1, static_cast<std::size_t>(kRatio[t]) * per_shard_scale * 8 / 10);
  }
  // More keys than total records: allocs rarely collide with a live
  // (key, table) pair, and the hash spreads them across shards.
  plan.keys = 163ull * per_shard_scale * shards;
  std::array<std::size_t, kTables> cumulative{};
  std::size_t sum = 0;
  for (std::size_t t = 0; t < kTables; ++t) {
    sum += kRatio[t];
    cumulative[t] = sum;
  }

  // Abstract live state: which (key, table) pairs hold a record, their
  // per-shard counts, and a dense list for uniform live picks.
  std::vector<std::uint8_t> live(plan.keys * kTables, 0);
  std::vector<std::uint32_t> live_pos(plan.keys * kTables, 0);
  std::vector<std::pair<db::SubscriberKey, db::TableId>> live_list;
  std::vector<std::array<std::size_t, kTables>> shard_live(
      shards, std::array<std::size_t, kTables>{});
  const auto slot_of = [](db::SubscriberKey key, db::TableId t) {
    return (key - 1) * kTables + t;
  };
  const auto add_live = [&](db::SubscriberKey key, db::TableId t) {
    const auto slot = slot_of(key, t);
    live[slot] = 1;
    live_pos[slot] = static_cast<std::uint32_t>(live_list.size());
    live_list.emplace_back(key, t);
    ++shard_live[router.shard_of(key)][t];
  };
  const auto remove_live = [&](db::SubscriberKey key, db::TableId t) {
    const auto slot = slot_of(key, t);
    live[slot] = 0;
    const std::uint32_t pos = live_pos[slot];
    live_list[pos] = live_list.back();
    live_pos[slot_of(live_list[pos].first, live_list[pos].second)] = pos;
    live_list.pop_back();
    --shard_live[router.shard_of(key)][t];
  };

  common::Rng rng(kSeed);
  while (plan.ops.size() < total_ops) {
    Plan::Round round;
    round.begin = plan.ops.size();
    const std::size_t body = std::min(round_ops, total_ops - plan.ops.size());
    for (std::size_t i = 0; i < body; ++i) {
      Op op;
      op.group = rng.uniform(2) == 0 ? db::kGroupActiveCalls
                                     : db::kGroupStableCalls;
      const auto kind = rng.uniform(10);
      bool emitted = false;
      if (kind <= 3 || live_list.empty()) {
        // Alloc: table weighted by size, subscriber uniform; retry a few
        // key draws on collision / full shard-table.
        const auto draw = rng.uniform(cumulative.back());
        db::TableId t = 0;
        while (cumulative[t] <= draw) {
          ++t;
        }
        for (int attempt = 0; attempt < 8 && !emitted; ++attempt) {
          const db::SubscriberKey key = 1 + rng.uniform(plan.keys);
          if (live[slot_of(key, t)] == 0 &&
              shard_live[router.shard_of(key)][t] < cap[t]) {
            op.kind = Op::Kind::Alloc;
            op.key = key;
            op.table = t;
            add_live(key, t);
            emitted = true;
          }
        }
      }
      if (!emitted && !live_list.empty()) {
        const auto [key, t] = live_list[rng.uniform(live_list.size())];
        op.key = key;
        op.table = t;
        switch (kind) {
          case 4:
          case 5:
            op.kind = Op::Kind::Free;
            remove_live(key, t);
            break;
          case 6:
            op.kind = Op::Kind::Move;
            break;
          case 7:
          case 8:
            op.kind = Op::Kind::WriteFld;
            op.value = static_cast<std::int32_t>(rng.uniform(1u << 30));
            break;
          default:
            op.kind = Op::Kind::ReadRec;
            break;
        }
        emitted = true;
      }
      if (emitted) {
        plan.ops.push_back(op);
      }
    }
    // Round-end cross-shard handoffs: ~1 per 512 body ops.
    round.transfer_begin = plan.ops.size();
    const std::size_t handoffs = std::max<std::size_t>(1, body / 512);
    for (std::size_t i = 0; i < handoffs && !live_list.empty(); ++i) {
      const auto [key, t] = live_list[rng.uniform(live_list.size())];
      for (int attempt = 0; attempt < 8; ++attempt) {
        const db::SubscriberKey key2 = 1 + rng.uniform(plan.keys);
        if (key2 == key || live[slot_of(key2, t)] != 0 ||
            shard_live[router.shard_of(key2)][t] >= cap[t]) {
          continue;
        }
        Op op;
        op.kind = Op::Kind::Transfer;
        op.key = key;
        op.key2 = key2;
        op.table = t;
        op.group = rng.uniform(2) == 0 ? db::kGroupActiveCalls
                                       : db::kGroupStableCalls;
        remove_live(key, t);
        add_live(key2, t);
        plan.ops.push_back(op);
        ++plan.transfers;
        break;
      }
    }
    round.end = plan.ops.size();
    plan.rounds.push_back(round);
  }
  return plan;
}

// --- arm execution ---

/// FNV-1a fold of one op's observable result (status + any values read).
std::uint64_t digest_result(db::Status status,
                            std::span<const std::int32_t> values = {}) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t byte) {
    h = (h ^ byte) * 0x100000001b3ull;
  };
  mix(static_cast<std::uint64_t>(status));
  for (const std::int32_t v : values) {
    const auto u = static_cast<std::uint32_t>(v);
    mix(u & 0xFF);
    mix((u >> 8) & 0xFF);
    mix((u >> 16) & 0xFF);
    mix((u >> 24) & 0xFF);
  }
  return h;
}

/// Executes plan op `index`. `rec` maps (key, table) to the arm-local
/// record index; `digests` takes the op's result digest at `index`.
void exec_op(const Plan& plan, std::size_t index, db::ShardedDbApi& api,
             std::vector<db::RecordIndex>& rec,
             std::vector<std::uint64_t>& digests) {
  const Op& op = plan.ops[index];
  const std::size_t slot = (op.key - 1) * kTables + op.table;
  db::Status status = db::Status::Ok;
  switch (op.kind) {
    case Op::Kind::Alloc: {
      db::RecordIndex out = 0;
      status = api.alloc_rec(op.key, op.table, op.group, out);
      if (status == db::Status::Ok) {
        rec[slot] = out;
      }
      digests[index] = digest_result(status);
      return;
    }
    case Op::Kind::Free:
      status = api.free_rec(op.key, op.table, rec[slot]);
      digests[index] = digest_result(status);
      return;
    case Op::Kind::Move:
      status = api.move_rec(op.key, op.table, rec[slot], op.group);
      digests[index] = digest_result(status);
      return;
    case Op::Kind::WriteFld:
      status = api.write_fld(op.key, op.table, rec[slot], 3, op.value);
      digests[index] = digest_result(status);
      return;
    case Op::Kind::ReadRec: {
      std::array<std::int32_t, 4> values{};
      status = api.read_rec(op.key, op.table, rec[slot], values);
      digests[index] = digest_result(status, values);
      return;
    }
    case Op::Kind::Transfer: {
      db::RecordIndex out = 0;
      status = api.transfer_rec(op.key, op.key2, op.table, rec[slot],
                                op.group, out);
      if (status == db::Status::Ok) {
        rec[(op.key2 - 1) * kTables + op.table] = out;
      }
      digests[index] = digest_result(status);
      return;
    }
  }
}

struct ArmOutput {
  std::vector<std::uint64_t> digests;
  double seconds = 0.0;
  double ops_per_s = 0.0;
  std::vector<std::vector<std::byte>> regions;  ///< final image per shard
  obs::MetricsSnapshot metrics;
  std::uint64_t imbalance = 0;
};

ArmOutput run_arm(const Plan& plan, std::uint32_t shards,
                  db::RecordIndex per_shard_scale, bool parallel,
                  common::WorkerPool* pool) {
  db::ShardedDb sharded(shards, [&](std::uint32_t) {
    return std::make_unique<db::Database>(
        db::make_bench_schema({.scale = per_shard_scale}));
  });
  db::ShardedDbApi api(sharded, []() { return sim::Time{0}; });
  api.init(1);

  ArmOutput out;
  out.digests.assign(plan.ops.size(), 0);
  std::vector<db::RecordIndex> rec(plan.keys * kTables, 0);

  // One recorder per shard plus one for the serial transfer sections;
  // worker w always runs shard w, so the metric attribution (and the
  // shard-ordered merge below) is identical at any host schedule.
  std::vector<obs::Recorder> recorders(shards + 1);

  if (!parallel) {
    const auto start = std::chrono::steady_clock::now();
    {
      obs::ScopedRecorder scoped(recorders[0]);
      for (std::size_t i = 0; i < plan.ops.size(); ++i) {
        exec_op(plan, i, api, rec, out.digests);
      }
    }
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  } else {
    // Pre-split every round's body by shard (plain routing work; the
    // timed section below is the execution itself).
    std::vector<std::vector<std::vector<std::uint32_t>>> schedule(
        plan.rounds.size());
    for (std::size_t r = 0; r < plan.rounds.size(); ++r) {
      schedule[r].assign(shards, {});
      for (std::size_t i = plan.rounds[r].begin;
           i < plan.rounds[r].transfer_begin; ++i) {
        schedule[r][api.shard_of(plan.ops[i].key)].push_back(
            static_cast<std::uint32_t>(i));
      }
    }
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < plan.rounds.size(); ++r) {
      pool->dispatch(shards, [&](std::size_t w) {
        obs::ScopedRecorder scoped(recorders[w]);
        for (const std::uint32_t i : schedule[r][w]) {
          exec_op(plan, i, api, rec, out.digests);
        }
      });
      obs::ScopedRecorder scoped(recorders[shards]);
      for (std::size_t i = plan.rounds[r].transfer_begin;
           i < plan.rounds[r].end; ++i) {
        exec_op(plan, i, api, rec, out.digests);
      }
    }
    out.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  }
  out.ops_per_s = out.seconds > 0.0
                      ? static_cast<double>(plan.ops.size()) / out.seconds
                      : 0.0;

  {
    obs::ScopedRecorder scoped(recorders[0]);
    out.imbalance = api.publish_imbalance();
  }
  for (const auto& recorder : recorders) {  // shard order, then transfers
    out.metrics.merge(recorder.snapshot());
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    const auto region = sharded.shard(s).region();
    out.regions.emplace_back(region.begin(), region.end());
  }
  return out;
}

// --- audit-isolation phase ---

struct IsolationResult {
  std::vector<sim::Duration> base;
  std::vector<sim::Duration> overload;
  double worst_ratio = 0.0;
  bool pass = true;
};

/// Per-shard audit stacks over a fresh N-shard database: seed live
/// records, take a baseline incremental cycle, then drive shard 0 at 2x
/// the per-round write volume and verify the OTHER shards' modelled cycle
/// makespans stay within 10% of baseline.
IsolationResult run_isolation(std::uint32_t shards,
                              db::RecordIndex per_shard_scale,
                              std::size_t workers) {
  db::ShardedDb sharded(shards, [&](std::uint32_t) {
    return std::make_unique<db::Database>(
        db::make_bench_schema({.scale = per_shard_scale}));
  });
  db::ShardedDbApi api(sharded, []() { return sim::Time{0}; });
  api.init(1);

  // 256 subscribers per shard, one record in every table each.
  constexpr std::size_t kSubsPerShard = 256;
  std::vector<std::vector<db::SubscriberKey>> keys(shards);
  std::size_t filled = 0;
  for (db::SubscriberKey k = 1; filled < shards; ++k) {
    auto& pool = keys[api.shard_of(k)];
    if (pool.size() < kSubsPerShard) {
      pool.push_back(k);
      if (pool.size() == kSubsPerShard) {
        ++filled;
      }
    }
  }
  struct LiveRec {
    db::SubscriberKey key;
    db::TableId table;
    db::RecordIndex rec;
  };
  std::vector<std::vector<LiveRec>> records(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (const db::SubscriberKey k : keys[s]) {
      for (db::TableId t = 0; t < kTables; ++t) {
        db::RecordIndex r = 0;
        if (api.alloc_rec(k, t, db::kGroupActiveCalls, r) == db::Status::Ok) {
          records[s].push_back({k, t, r});
        }
      }
    }
  }

  experiments::ShardedControllerConfig config;
  config.audit.periodic_enabled = false;  // cycles run explicitly below
  config.audit.engine.incremental = true;
  config.audit.engine.full_sweep_interval = 0;  // dirty-driven cycles only
  config.audit.engine.audit_threads = 2;
  experiments::ShardedController controller(sharded, config);
  controller.run_audit_cycles(workers);  // adopt post-seeding watermarks

  // A burst writes the first `records/2 * mult` records of a shard — all
  // distinct, so the next incremental cycle's work is proportional to it.
  const auto burst = [&](std::uint32_t s, std::size_t mult) {
    const std::size_t count =
        std::min(records[s].size(), records[s].size() / 2 * mult);
    for (std::size_t i = 0; i < count; ++i) {
      const auto& lr = records[s][i];
      api.write_fld(lr.key, lr.table, lr.rec, 3,
                    static_cast<std::int32_t>(i));
    }
  };

  IsolationResult result;
  for (std::uint32_t s = 0; s < shards; ++s) {
    burst(s, 1);
  }
  result.base = controller.run_audit_cycles(workers);
  burst(0, 2);  // shard 0 at double the write volume
  for (std::uint32_t s = 1; s < shards; ++s) {
    burst(s, 1);
  }
  result.overload = controller.run_audit_cycles(workers);

  for (std::uint32_t s = 1; s < shards; ++s) {
    const double base = static_cast<double>(result.base[s]);
    const double over = static_cast<double>(result.overload[s]);
    const double ratio = base > 0.0 ? over / base : (over > 0.0 ? 2.0 : 1.0);
    result.worst_ratio = std::max(result.worst_ratio, ratio);
    if (ratio > 1.10) {
      result.pass = false;
    }
  }
  return result;
}

long first_divergence(const std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint32_t shards = bench::shards_flag(argc, argv, 4);
  const std::size_t scale = bench::flag(argc, argv, "scale", 6400);
  const std::size_t ops = bench::flag(argc, argv, "ops", 2000000);
  const std::size_t round_ops = bench::flag(argc, argv, "round-ops", 8192);
  const std::size_t min_pct = bench::flag(argc, argv, "min-scaling-pct", 80);
  const std::string json_path =
      bench::flag_str(argc, argv, "json", "BENCH_sharded_db.json");
  bench::campaign_init(argc, argv);
  if (scale % shards != 0 || scale == 0) {
    std::fprintf(stderr,
                 "%s: --scale=%zu must be a nonzero multiple of --shards=%u "
                 "(every shard holds scale/shards Table-5 units)\n",
                 argv[0], scale, shards);
    return 2;
  }
  const auto per_shard_scale = static_cast<db::RecordIndex>(scale / shards);
  const std::size_t total_records = 163 * scale;

  std::printf("A15: sharded multi-controller database — %u shards\n", shards);
  std::printf(
      "total %zu records (Table-5 scale %zu; %u x scale-%u shards), "
      "%zu ops, rounds of %zu\n\n",
      total_records, scale, shards, per_shard_scale, ops, round_ops);

  const Plan plan = make_plan(shards, per_shard_scale, ops, round_ops);
  std::printf("plan: %zu ops in %zu rounds, %zu cross-shard handoffs\n",
              plan.ops.size(), plan.rounds.size(), plan.transfers);

  // --- the three arms ---
  const ArmOutput serial1 = run_arm(plan, 1, static_cast<db::RecordIndex>(scale),
                                    /*parallel=*/false, nullptr);
  const ArmOutput serialN =
      run_arm(plan, shards, per_shard_scale, /*parallel=*/false, nullptr);
  common::WorkerPool pool(shards > 0 ? shards - 1 : 0);
  const ArmOutput parallelN =
      run_arm(plan, shards, per_shard_scale, /*parallel=*/true, &pool);

  // --- gate: per-op result equality across all arms ---
  const long div_1_n = first_divergence(serial1.digests, serialN.digests);
  const long div_n_p = first_divergence(serialN.digests, parallelN.digests);
  std::printf("\nresults: serial-1 vs serial-%u %s, serial-%u vs parallel-%u %s\n",
              shards, div_1_n < 0 ? "identical" : "DIVERGED", shards, shards,
              div_n_p < 0 ? "identical" : "DIVERGED");
  bench::Report report("sharded_db");
  bool results_equal = report.gate(
      div_1_n < 0, "serial-1 vs serial-N diverged at op " +
                       std::to_string(div_1_n));
  results_equal &= report.gate(
      div_n_p < 0, "serial-N vs parallel-N diverged at op " +
                       std::to_string(div_n_p));

  // --- gate: per-shard region byte-equality (parallel vs serial oracle) ---
  bool regions_equal = true;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const auto& a = serialN.regions[s];
    const auto& b = parallelN.regions[s];
    regions_equal &= report.gate(
        a.size() == b.size() &&
            std::memcmp(a.data(), b.data(), a.size()) == 0,
        "shard " + std::to_string(s) +
            " region differs from the serial oracle");
  }
  std::printf("regions: %u shard images vs serial oracle: %s\n", shards,
              regions_equal ? "byte-identical" : "DIVERGED");

  // --- gate: throughput scaling ---
  // The parallel arm can only use as many cores as the host has: the gate
  // is min-scaling-pct of the EFFECTIVE parallelism min(shards, cores), so
  // a >=N-core runner demands the full 0.8*N while a smaller host demands
  // what its hardware can deliver (on 1 core: parallel must not regress).
  const std::uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  const std::uint32_t effective = std::min(shards, hw);
  const double scaling = serial1.ops_per_s > 0.0
                             ? parallelN.ops_per_s / serial1.ops_per_s
                             : 0.0;
  const double required =
      static_cast<double>(min_pct) / 100.0 * static_cast<double>(effective);
  const bool scales =
      report.gate(scaling >= required, "scaling " + common::fmt(scaling, 2) +
                                           "x below " +
                                           common::fmt(required, 2) + "x");
  std::printf("\n%-12s %14s %10s\n", "arm", "ops/s", "seconds");
  std::printf("%-12s %14.0f %10.3f\n", "serial-1", serial1.ops_per_s,
              serial1.seconds);
  std::printf("serial-%-5u %14.0f %10.3f\n", shards, serialN.ops_per_s,
              serialN.seconds);
  std::printf("parallel-%-3u %14.0f %10.3f\n", shards, parallelN.ops_per_s,
              parallelN.seconds);
  std::printf(
      "scaling: %.2fx vs serial-1 (gate: >= %.2fx at effective parallelism "
      "%u = min(%u shards, %u cores))\n",
      scaling, required, effective, shards, hw);

  // --- gate: audit isolation under single-shard overload ---
  const IsolationResult isolation =
      run_isolation(shards, per_shard_scale, shards);
  std::printf("\naudit isolation (shard 0 at 2x write overload):\n");
  for (std::uint32_t s = 0; s < shards; ++s) {
    std::printf("  shard %u cycle makespan: %llu -> %llu us%s\n", s,
                static_cast<unsigned long long>(isolation.base[s]),
                static_cast<unsigned long long>(isolation.overload[s]),
                s == 0 ? " (overloaded)" : "");
  }
  std::printf("  worst non-overloaded ratio: %.3fx (gate: <= 1.10x): %s\n",
              isolation.worst_ratio, isolation.pass ? "ok" : "FAIL");
  report.gate(isolation.pass, "a non-overloaded shard's audit cycle "
                              "makespan rose more than 10%");

  // --- obs surface ---
  const auto& m = parallelN.metrics;
  std::printf("\nrouting: %llu routed ops, %llu cross-shard links, "
              "imbalance %llu milli\n",
              static_cast<unsigned long long>(
                  m.counter(obs::Counter::db_shard_routed)),
              static_cast<unsigned long long>(
                  m.counter(obs::Counter::db_cross_shard_links)),
              static_cast<unsigned long long>(parallelN.imbalance));
  if (auto* capture = obs::active_capture()) {
    capture->absorb_run({parallelN.metrics, {}});
  }

  using bench::Json;
  const auto arm_json = [](const char* name, const ArmOutput& arm) {
    return Json::object(
        {{"name", name}, {"ops_per_s", Json::fixed(arm.ops_per_s, 0)}});
  };
  report.add("shards", shards)
      .add("scale", scale)
      .add("per_shard_scale", per_shard_scale)
      .add("total_records", total_records)
      .add("ops", plan.ops.size())
      .add("transfers", plan.transfers)
      .add("arms", Json::array({arm_json("serial_1", serial1),
                                arm_json("serial_n", serialN),
                                arm_json("parallel_n", parallelN)}))
      .add("results_equal", results_equal)
      .add("regions_equal", regions_equal)
      .add("scaling", Json::object({{"measured", Json::fixed(scaling, 3)},
                                    {"required", Json::fixed(required, 3)},
                                    {"hw_cores", hw},
                                    {"effective_parallelism", effective},
                                    {"pass", scales}}))
      .add("isolation",
           Json::object({{"worst_ratio", Json::fixed(isolation.worst_ratio, 4)},
                         {"pass", isolation.pass}}))
      .add("routing",
           Json::object(
               {{"routed", m.counter(obs::Counter::db_shard_routed)},
                {"cross_shard_links",
                 m.counter(obs::Counter::db_cross_shard_links)},
                {"imbalance_milli", parallelN.imbalance}}))
      .add("pass", results_equal && regions_equal && scales && isolation.pass);
  return report.finish(json_path);
}
