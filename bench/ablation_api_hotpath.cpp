// Ablation A12: the O(1) database hot path (shadow free/group index +
// incremental chain splicing) vs the original full-relink API.
//
// The paper's database keeps each logical group's records on a linked
// chain and finds free records by scanning headers, so every mutating API
// call — DBalloc, DBfree, DBmove — costs O(N_records). The shadow index
// (db/index.hpp) makes those operations a few bit scans each without
// changing a byte of on-region format: the lowest free slot and a
// record's chain neighbours are found by a word scan of flat two-level
// bitmaps, and the chain is spliced by rewriting only the affected link
// words. Two arms over the Table-5-ratio bench schema (largest table
// 125 x scale records):
//
//   splice       LinkMode::Splice — index pop + incremental splice
//   full_relink  LinkMode::FullRelink — the original scan + chain rebuild
//
// Two phases:
//
//   equality  both arms execute the same seeded alloc/free/move campaign
//             on twin databases, with the splice arm's paranoid
//             cross-check enabled; the region bytes are compared after
//             every operation. A single differing byte fails the run —
//             the splice is required to be byte-equivalent to the
//             relink-from-scratch reference, not merely
//             invariant-preserving.
//   timing    each arm runs the same campaign alone at full speed;
//             ops/sec from a monotonic wall clock. The run fails unless
//             the splice arm is at least 5x the relink arm.
//
// Flags: --ops=N        timing ops per arm       (default 200000)
//        --equality-ops=N  byte-compared ops     (default 2000)
//        --scale=N      Table-5 ratio multiplier (default 64 = paper
//                       scale, as in the Figures 5/6 experiments)
//        --json=PATH    (default BENCH_api_hotpath.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table_printer.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"

using namespace wtc;

namespace {

constexpr std::uint64_t kSeed = 0xA12C0DE5ull;

/// One deterministic mixed mutation stream: allocations into groups 1/2,
/// frees and moves of live records, uniformly across all tables. The
/// decision sequence depends only on the seed and the evolving live set,
/// and both link modes pick identical slots (lowest-index free record),
/// so two arms driven with the same seed execute identical logical ops.
class Workload {
 public:
  Workload(db::Database& database, db::DbApi& api, std::uint64_t seed)
      : db_(database), api_(api), rng_(seed), live_(database.table_count()) {
    // Traffic lands on tables in proportion to their size (uniform over
    // records), matching the access model behind Table 5's prioritized
    // audit: the 125-ratio table carries most of the database and most of
    // the load.
    std::size_t cumulative = 0;
    for (const auto& table : database.schema().tables) {
      cumulative += table.num_records;
      cumulative_records_.push_back(cumulative);
    }
  }

  void step() {
    const auto draw = rng_.uniform(cumulative_records_.back());
    db::TableId t = 0;
    while (cumulative_records_[t] <= draw) {
      ++t;
    }
    auto& live = live_[t];
    const auto kind = rng_.uniform(4);  // bias toward alloc: fill tables up
    const std::uint32_t group = rng_.uniform(2) == 0 ? db::kGroupActiveCalls
                                                     : db::kGroupStableCalls;
    if (kind <= 1 || live.empty()) {
      db::RecordIndex r = 0;
      if (api_.alloc_rec(t, group, r) == db::Status::Ok) {
        live.push_back(r);
        ++allocs;
      } else if (!live.empty()) {
        // Table full: free the oldest live record so the stream keeps
        // exercising the free list at high occupancy.
        free_at(t, 0);
      }
    } else if (kind == 2) {
      free_at(t, rng_.uniform(live.size()));
    } else {
      const auto pick = rng_.uniform(live.size());
      if (api_.move_rec(t, live[pick], group) == db::Status::Ok) {
        ++moves;
      }
    }
  }

  std::size_t allocs = 0;
  std::size_t frees = 0;
  std::size_t moves = 0;

 private:
  void free_at(db::TableId t, std::size_t pick) {
    auto& live = live_[t];
    if (api_.free_rec(t, live[pick]) == db::Status::Ok) {
      ++frees;
    }
    live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  db::Database& db_;
  db::DbApi& api_;
  common::Rng rng_;
  std::vector<std::vector<db::RecordIndex>> live_;  // per table
  std::vector<std::size_t> cumulative_records_;     // prefix sums, table pick
};

struct TimingResult {
  double ops_per_s = 0.0;
  double ns_per_op = 0.0;
  std::size_t allocs = 0;
  std::size_t frees = 0;
  std::size_t moves = 0;
};

TimingResult run_timing_arm(db::LinkMode mode, std::size_t scale,
                            std::size_t ops) {
  db::Database database(db::make_bench_schema({.scale =
                                                   static_cast<db::RecordIndex>(
                                                       scale)}));
  db::DbApi api(database, []() { return sim::Time{0}; });
  api.set_link_mode(mode);
  api.init(1);
  Workload workload(database, api, kSeed);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    workload.step();
  }
  const auto stop = std::chrono::steady_clock::now();
  const double seconds =
      std::chrono::duration<double>(stop - start).count();
  TimingResult result;
  result.ops_per_s = seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
  result.ns_per_op = static_cast<double>(ops) > 0.0
                         ? seconds * 1e9 / static_cast<double>(ops)
                         : 0.0;
  result.allocs = workload.allocs;
  result.frees = workload.frees;
  result.moves = workload.moves;
  return result;
}

/// Twin execution with per-op byte comparison. Returns the index of the
/// first diverging op, or -1 when the regions stayed identical.
long run_equality_phase(std::size_t scale, std::size_t ops) {
  const auto schema_params =
      db::BenchSchemaParams{.scale = static_cast<db::RecordIndex>(scale)};
  db::Database splice_db(db::make_bench_schema(schema_params));
  db::Database relink_db(db::make_bench_schema(schema_params));
  splice_db.set_index_cross_check(true);  // paranoid verify-before-splice
  db::DbApi splice_api(splice_db, []() { return sim::Time{0}; });
  db::DbApi relink_api(relink_db, []() { return sim::Time{0}; });
  relink_api.set_link_mode(db::LinkMode::FullRelink);
  splice_api.init(1);
  relink_api.init(1);
  Workload splice_load(splice_db, splice_api, kSeed);
  Workload relink_load(relink_db, relink_api, kSeed);
  for (std::size_t i = 0; i < ops; ++i) {
    splice_load.step();
    relink_load.step();
    const auto a = splice_db.region();
    const auto b = relink_db.region();
    if (std::memcmp(a.data(), b.data(), a.size()) != 0) {
      return static_cast<long>(i);
    }
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t ops = bench::flag(argc, argv, "ops", 200000);
  const std::size_t equality_ops = bench::flag(argc, argv, "equality-ops", 2000);
  // scale 64 is the repo's paper-scale sizing for the Table-5 schema (the
  // Figures 5/6 prioritized-audit experiments use the same), ~10k records.
  const std::size_t scale = bench::flag(argc, argv, "scale", 64);
  const std::string json_path =
      bench::flag_str(argc, argv, "json", "BENCH_api_hotpath.json");
  bench::campaign_init(argc, argv);

  std::printf("A12: API hot path — shadow-index splice vs full relink\n");
  std::printf("bench schema scale %zu (largest table %zu records), %zu ops/arm\n\n",
              scale, 125 * scale, ops);

  // --- equality phase ---
  const long diverged_at = run_equality_phase(scale, equality_ops);
  const bool regions_equal = diverged_at < 0;
  std::printf("equality: %zu byte-compared ops, cross-check on: %s\n",
              equality_ops,
              regions_equal ? "regions identical" : "DIVERGED");
  bench::Report report("api_hotpath");
  report.gate(regions_equal, "splice and full-relink regions diverged at op " +
                                 std::to_string(diverged_at));

  // --- timing phase (index counters captured from the splice arm) ---
  obs::Recorder recorder;
  TimingResult splice;
  {
    obs::ScopedRecorder scoped(recorder);
    splice = run_timing_arm(db::LinkMode::Splice, scale, ops);
  }
  const TimingResult relink = run_timing_arm(db::LinkMode::FullRelink, scale, ops);
  const double speedup =
      relink.ops_per_s > 0.0 ? splice.ops_per_s / relink.ops_per_s : 0.0;
  const auto& counters = recorder.snapshot();

  std::printf("\n%-12s %14s %12s %9s %9s %9s\n", "arm", "ops/s", "ns/op",
              "allocs", "frees", "moves");
  std::printf("%-12s %14.0f %12.1f %9zu %9zu %9zu\n", "splice",
              splice.ops_per_s, splice.ns_per_op, splice.allocs, splice.frees,
              splice.moves);
  std::printf("%-12s %14.0f %12.1f %9zu %9zu %9zu\n", "full_relink",
              relink.ops_per_s, relink.ns_per_op, relink.allocs, relink.frees,
              relink.moves);
  std::printf("\nspeedup: %.1fx   (index hits %llu, splices %llu, "
              "resyncs %llu, rebuilds %llu)\n",
              speedup,
              static_cast<unsigned long long>(
                  counters.counter(obs::Counter::db_index_hits)),
              static_cast<unsigned long long>(
                  counters.counter(obs::Counter::db_index_splices)),
              static_cast<unsigned long long>(
                  counters.counter(obs::Counter::db_index_resyncs)),
              static_cast<unsigned long long>(
                  counters.counter(obs::Counter::db_index_rebuilds)));

  report.gate(speedup >= 5.0,
              "speedup " + common::fmt(speedup, 2) + "x below the 5x floor");

  using bench::Json;
  const auto arm_json = [](const char* name, const TimingResult& arm) {
    return Json::object({{"name", name},
                         {"ops_per_s", Json::fixed(arm.ops_per_s, 0)},
                         {"ns_per_op", Json::fixed(arm.ns_per_op, 1)},
                         {"allocs", arm.allocs},
                         {"frees", arm.frees},
                         {"moves", arm.moves}});
  };
  report.add("scale", scale)
      .add("ops", ops)
      .add("equality", Json::object({{"ops", equality_ops},
                                     {"cross_check", true},
                                     {"regions_equal", regions_equal}}))
      .add("arms", Json::array({arm_json("splice", splice),
                                arm_json("full_relink", relink)}))
      .add("speedup", Json::fixed(speedup, 2))
      .add("index_counters",
           Json::object(
               {{"hits", counters.counter(obs::Counter::db_index_hits)},
                {"splices", counters.counter(obs::Counter::db_index_splices)},
                {"resyncs", counters.counter(obs::Counter::db_index_resyncs)},
                {"rebuilds",
                 counters.counter(obs::Counter::db_index_rebuilds)}}));
  return report.finish(json_path);
}
