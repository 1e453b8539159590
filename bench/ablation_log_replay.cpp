// Ablation A16: whole-run op-log record/replay — deduplicated
// re-execution as a fast semantic audit arm and a zero-simulation
// workload engine.
//
// Four phases, four claims:
//
//   record/replay   A recorded run's op log, re-applied by the
//                   zero-simulation engine (--replay-oplog), reproduces
//                   the recording run's final region byte-for-byte with
//                   no call-processing simulation at all. Gates: byte
//                   identity, zero divergences, wall-clock speedup >=
//                   --min-wall-speedup (default 5x).
//
//   clean audit     With the replay audit arm enabled on a clean run
//                   (no injections), every replay cycle's shadow compare
//                   is exact: zero mismatches, zero findings — the
//                   semantic arm has no false positives.
//
//   dedup           On the checked-in handoff-storm workload, lifecycle
//                   chains repeat massively (> 30% duplicate ratio), so
//                   the deduplicated re-execution books >= 3x less CPU
//                   than naive full re-execution.
//
//   semantic        Seeded in-range corruptions of *unruled* dynamic
//                   fields (billing units, link quality) are invisible
//                   to the structural arms — static checksum, record
//                   headers, range rules, FK loops all pass — but the
//                   replay audit flags 100% of them: the shadow knows
//                   the exact value history.
//
//   (determinism rides along: replay-audit findings/stats digests are
//   bit-identical at 1/2/4/8 replay threads, and the zero-simulation
//   engine is byte-stable across --jobs fan-out.)
//
// Flags: --duration=SECONDS (record-run horizon, default 400),
//        --scale=N (Table-5 schema multiplier for the record arm,
//        default 64 — the recording run's periodic audit sweeps scan the
//        scaled region for real, which is exactly the work the replay
//        engine never does),
//        --workloads=DIR (default: the source tree's workloads/, so the
//        bench runs from any working directory),
//        --corruptions=N (semantic phase seeds, default 24),
//        --min-wall-speedup=X (default 5; smoke runs may relax — timing
//        noise on a tiny horizon, the byte-identity gate stays exact),
//        --record-out=PATH (scratch capture file), --json=PATH
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "audit/engine.hpp"
#include "audit/replay.hpp"
#include "bench_util.hpp"
#include "common/table_printer.hpp"
#include "db/run_op_log.hpp"
#include "experiments/replay_workload.hpp"
#include "report.hpp"

using namespace wtc;

namespace {

double wall_seconds(const std::chrono::steady_clock::time_point& begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
      .count();
}

std::uint64_t fnv_mix(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xFFu;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Digest of everything a replay-audit cycle outputs: findings (in
/// order, all attribution fields) and the full stats block.
std::uint64_t replay_digest(const audit::ReplayResult& result) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const audit::Finding& f : result.findings) {
    hash = fnv_mix(hash, f.offset);
    hash = fnv_mix(hash, f.length);
    hash = fnv_mix(hash, f.table);
    hash = fnv_mix(hash, f.record);
    hash = fnv_mix(hash, f.field);
  }
  const audit::ReplayStats& s = result.stats;
  hash = fnv_mix(hash, s.total_ops);
  hash = fnv_mix(hash, s.chains);
  hash = fnv_mix(hash, s.unique_chains);
  hash = fnv_mix(hash, s.executed_ops);
  hash = fnv_mix(hash, s.mismatched_words);
  hash = fnv_mix(hash, static_cast<std::uint64_t>(s.naive_cost));
  hash = fnv_mix(hash, static_cast<std::uint64_t>(s.dedup_cost));
  // makespan is deliberately excluded: it models the parallel critical
  // path, so it is the one stat that legitimately varies with threads.
  return hash;
}

std::uint64_t region_digest(std::span<const std::byte> region) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::byte b : region) {
    hash ^= static_cast<std::uint8_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// The semantic phase's in-bench capture: calls set up through the
/// instrumented API with a RunOpLog tee, a third of them left active so
/// there is live state to corrupt.
struct SemanticFixture {
  std::unique_ptr<db::Database> database;
  db::ControllerIds ids;
  db::RunOpLog oplog;
  std::vector<std::pair<db::TableId, db::RecordIndex>> active;  // (t, r)

  SemanticFixture() : database(db::make_controller_database()) {
    ids = db::resolve_controller_ids(database->schema());
    sim::Time now = 0;
    db::DbApi api(*database, [&now]() { return now; });
    api.set_audit_hooks(&oplog);
    api.init(1);
    for (int call = 0; call < 48; ++call) {
      db::RecordIndex p = 0, conn = 0, r = 0;
      if (api.alloc_rec(ids.process, db::kGroupActiveCalls, p) !=
              db::Status::Ok ||
          api.alloc_rec(ids.connection, db::kGroupActiveCalls, conn) !=
              db::Status::Ok ||
          api.alloc_rec(ids.resource, db::kGroupActiveCalls, r) !=
              db::Status::Ok) {
        break;
      }
      now += static_cast<sim::Time>(sim::kMillisecond);
      api.write_fld(ids.process, p, ids.p_process_id, db::key_of(p));
      api.write_fld(ids.process, p, ids.p_connection_id, db::key_of(conn));
      api.write_fld(ids.connection, conn, ids.c_connection_id, db::key_of(conn));
      api.write_fld(ids.connection, conn, ids.c_channel_id, db::key_of(r));
      api.write_fld(ids.connection, conn, ids.c_billing_units, 10 + call % 7);
      api.write_fld(ids.resource, r, ids.r_channel_id, db::key_of(r));
      api.write_fld(ids.resource, r, ids.r_process_id, db::key_of(p));
      api.write_fld(ids.resource, r, ids.r_link_quality, 40 + call % 9);
      if (call % 3 != 0) {
        api.free_rec(ids.resource, r);
        api.free_rec(ids.connection, conn);
        api.free_rec(ids.process, p);
      } else {
        active.emplace_back(ids.connection, conn);
        active.emplace_back(ids.resource, r);
      }
      now += static_cast<sim::Time>(sim::kMillisecond);
    }
    api.close();
  }
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t duration_s = bench::flag(argc, argv, "duration", 400);
  const std::size_t scale = bench::flag(argc, argv, "scale", 64);
  const std::size_t corruptions_requested =
      bench::flag(argc, argv, "corruptions", 24);
  const std::size_t min_wall_speedup =
      bench::flag(argc, argv, "min-wall-speedup", 5);
  const std::string workloads_dir =
      bench::flag_str(argc, argv, "workloads", WTC_WORKLOADS_DIR);
  const std::string record_out =
      bench::flag_str(argc, argv, "record-out", "BENCH_log_replay.oplog");
  const std::string json_path =
      bench::flag_str(argc, argv, "json", "BENCH_log_replay.json");
  bench::campaign_init(argc, argv);

  std::printf("=== Ablation A16: op-log record/replay "
              "(%zus record horizon, scale %zu) ===\n\n",
              duration_s, scale);
  bench::Report report("log_replay");

  // --- phase 1: record, then zero-simulation replay ---
  auto record_params = bench::table2_params();
  record_params.duration = static_cast<sim::Duration>(duration_s) *
                           static_cast<sim::Duration>(sim::kSecond);
  // Table-5 proportions (as A14): the periodic audit sweeps scan this
  // region for real during the recording run; the replay engine only
  // re-applies the ops, so the gap it closes is the whole simulation.
  record_params.schema.process_records = static_cast<db::RecordIndex>(4 * scale);
  record_params.schema.connection_records =
      static_cast<db::RecordIndex>(4 * scale);
  record_params.schema.resource_records =
      static_cast<db::RecordIndex>(5 * scale);
  record_params.schema.config_records = static_cast<db::RecordIndex>(2 * scale);
  record_params.schema.subscriber_records =
      static_cast<db::RecordIndex>(4 * scale);
  // Clean run: a replayable region must be explainable by its op log
  // alone, and the injector writes the region behind the API's back.
  record_params.injections_enabled = false;
  record_params.capture_final_region = true;
  record_params.record_oplog_path = record_out;
  record_params.seed = 0x0A16;
  const auto record_begin = std::chrono::steady_clock::now();
  const auto recorded = experiments::run_audit_experiment(record_params);
  const double record_wall = wall_seconds(record_begin);

  auto replay_params = record_params;
  replay_params.record_oplog_path.clear();
  replay_params.replay_oplog_path = record_out;
  const auto replay_begin = std::chrono::steady_clock::now();
  const auto replayed = experiments::run_audit_experiment(replay_params);
  const double replay_wall = wall_seconds(replay_begin);

  const bool bytes_equal = recorded.final_region == replayed.final_region;
  const double wall_speedup =
      replay_wall > 0.0 ? record_wall / replay_wall : 0.0;
  report.gate(bytes_equal,
              "replayed final region differs from the recording run's "
              "(zero-simulation engine is not byte-exact)");
  report.gate(replayed.replay_divergences == 0,
              std::to_string(replayed.replay_divergences) +
                  " replay divergences on a clean capture");
  report.gate(wall_speedup >= static_cast<double>(min_wall_speedup),
              "replay wall-clock speedup " + common::fmt(wall_speedup, 2) +
                  "x is below the " + std::to_string(min_wall_speedup) +
                  "x gate");
  std::printf("--- record/replay ---\n"
              "recorded %llu events in %.3f s (simulation); replayed %llu "
              "update ops in %.3f s (zero simulation): %.1fx, region %s\n\n",
              static_cast<unsigned long long>(recorded.oplog_recorded),
              record_wall,
              static_cast<unsigned long long>(replayed.replay_applied),
              replay_wall, wall_speedup,
              bytes_equal ? "byte-identical" : "DIFFERS");

  // --- phase 2: replay audit arm on a clean run: no false mismatches ---
  auto clean_params = record_params;
  clean_params.record_oplog_path.clear();
  clean_params.capture_final_region = false;
  clean_params.audit.replay_audit = true;
  const auto clean = experiments::run_audit_experiment(clean_params);
  report.gate(clean.replay_runs != 0,
              "replay audit arm never ran on the clean run");
  report.gate(clean.replay.mismatched_words == 0,
              std::to_string(clean.replay.mismatched_words) +
                  " false mismatch words on a clean run");
  std::printf("--- clean-run replay audit ---\n"
              "%llu replay cycles, last: %llu chains (%llu unique), "
              "%llu mismatched words\n\n",
              static_cast<unsigned long long>(clean.replay_runs),
              static_cast<unsigned long long>(clean.replay.chains),
              static_cast<unsigned long long>(clean.replay.unique_chains),
              static_cast<unsigned long long>(clean.replay.mismatched_words));

  // --- phase 3: dedup on the handoff storm ---
  const std::string storm_path = workloads_dir + "/handoff_storm.oplog";
  const db::OpLogReadResult storm = db::load_op_log(storm_path);
  audit::ReplayStats storm_stats;
  if (report.gate(storm.ok(), "cannot load " + storm_path + ": " +
                                  std::string(db::to_string(storm.error)))) {
    auto storm_db = db::make_controller_database();
    experiments::apply_op_log(*storm_db, storm.events);
    audit::ReplayAuditor auditor(*storm_db, audit::ReplayConfig{});
    const audit::ReplayResult result = auditor.run(storm.events);
    storm_stats = result.stats;
    const double cpu_ratio =
        storm_stats.dedup_cost > 0
            ? static_cast<double>(storm_stats.naive_cost) /
                  static_cast<double>(storm_stats.dedup_cost)
            : 0.0;
    report.gate(storm_stats.duplicate_ratio() > 0.30,
                "handoff-storm duplicate-chain ratio " +
                    common::fmt(100.0 * storm_stats.duplicate_ratio(), 1) +
                    "% is below the 30% gate");
    report.gate(cpu_ratio >= 3.0, "dedup replay is only " +
                                      common::fmt(cpu_ratio, 2) +
                                      "x cheaper than naive re-execution "
                                      "(gate: 3x)");
    report.gate(result.findings.empty(),
                "replay audit flagged a just-replayed region");
    std::printf("--- handoff-storm dedup ---\n"
                "%llu chains, %llu unique (duplicate ratio %.1f%%); booked "
                "CPU naive %llu vs dedup %llu: %.1fx cheaper\n\n",
                static_cast<unsigned long long>(storm_stats.chains),
                static_cast<unsigned long long>(storm_stats.unique_chains),
                100.0 * storm_stats.duplicate_ratio(),
                static_cast<unsigned long long>(storm_stats.naive_cost),
                static_cast<unsigned long long>(storm_stats.dedup_cost),
                cpu_ratio);
  }

  // --- phase 4: seeded semantic corruption ---
  SemanticFixture fixture;
  db::Database& sdb = *fixture.database;
  std::vector<std::size_t> corrupted_offsets;
  const std::size_t corruptions =
      std::min(corruptions_requested, fixture.active.size());
  for (std::size_t i = 0; i < corruptions; ++i) {
    const auto [t, r] = fixture.active[i];
    const db::FieldId field = t == fixture.ids.connection
                                  ? fixture.ids.c_billing_units
                                  : fixture.ids.r_link_quality;
    const std::size_t at = sdb.layout().field_offset(t, r, field);
    // In-range, plausible drift: exactly the corruption class no range
    // rule or structural invariant can see.
    db::store_i32(sdb.region(), at, db::load_i32(sdb.region(), at) + 1);
    sdb.mark_written(at, 4);
    corrupted_offsets.push_back(at);
  }

  // Structural arms first (they would repair what they find — nothing).
  audit::EngineConfig engine_config;
  sim::Time audit_now = 0;
  audit::AuditEngine engine(sdb, engine_config,
                            [&audit_now]() { return audit_now; });
  std::uint64_t structural_findings = 0;
  structural_findings += engine.check_static().findings;
  for (db::TableId t = 0;
       t < static_cast<db::TableId>(sdb.schema().tables.size()); ++t) {
    structural_findings += engine.check_structure(t).findings;
    structural_findings += engine.check_ranges(t).findings;
  }
  structural_findings += engine.check_semantics().findings;
  report.gate(structural_findings == 0,
              "structural arms flagged " +
                  std::to_string(structural_findings) +
                  " of the unruled-field corruptions (expected 0 — the "
                  "corruption class is wrong)");

  audit::ReplayAuditor semantic_auditor(sdb, audit::ReplayConfig{});
  const audit::ReplayResult semantic =
      semantic_auditor.run(fixture.oplog.events());
  std::size_t detected = 0;
  for (const std::size_t offset : corrupted_offsets) {
    for (const audit::Finding& f : semantic.findings) {
      if (offset >= f.offset && offset < f.offset + f.length) {
        ++detected;
        break;
      }
    }
  }
  report.gate(detected == corrupted_offsets.size(),
              "replay audit detected only " + std::to_string(detected) + "/" +
                  std::to_string(corrupted_offsets.size()) +
                  " seeded semantic corruptions");
  report.gate(semantic.stats.mismatched_words == corrupted_offsets.size(),
              "replay audit flagged " +
                  std::to_string(semantic.stats.mismatched_words) +
                  " words for " + std::to_string(corrupted_offsets.size()) +
                  " seeded corruptions (false mismatches)");
  std::printf("--- seeded semantic corruption ---\n"
              "%zu unruled-field corruptions: structural arms flagged "
              "%llu, replay audit detected %zu (%llu mismatched words)\n\n",
              corrupted_offsets.size(),
              static_cast<unsigned long long>(structural_findings), detected,
              static_cast<unsigned long long>(semantic.stats.mismatched_words));

  // --- determinism rides along: thread-count digests + jobs fan-out ---
  std::vector<std::uint64_t> digests;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    audit::ReplayConfig config;
    config.replay_threads = threads;
    audit::ReplayAuditor auditor(sdb, config);
    digests.push_back(replay_digest(auditor.run(fixture.oplog.events())));
  }
  const bool digests_stable =
      std::all_of(digests.begin(), digests.end(),
                  [&](std::uint64_t d) { return d == digests.front(); });
  report.gate(digests_stable,
              "replay audit digest differs across replay thread counts "
              "(determinism violation)");
  std::vector<std::uint64_t> region_digests;
  for (const std::size_t jobs : {1u, 4u}) {
    experiments::CampaignOptions options;
    options.jobs = jobs;
    options.label = "replay fan-out";
    options.stderr_progress = 0;
    const auto regions = experiments::run_campaign(
        4,
        [&](std::size_t) {
          auto params = replay_params;
          return region_digest(
              experiments::run_audit_experiment(params).final_region);
        },
        options);
    std::uint64_t merged = 0xcbf29ce484222325ull;
    for (const std::uint64_t d : regions) {
      merged = fnv_mix(merged, d);
    }
    region_digests.push_back(merged);
  }
  const bool fan_out_stable = report.gate(
      region_digests[0] == region_digests[1],
      "zero-simulation replay differs across --jobs fan-out (determinism "
      "violation)");
  std::printf("--- determinism ---\n"
              "replay-audit digest %016llx at 1/2/4/8 threads %s; campaign "
              "fan-out digest %016llx at jobs 1/4 %s\n\n",
              static_cast<unsigned long long>(digests.front()),
              digests_stable ? "stable" : "UNSTABLE",
              static_cast<unsigned long long>(region_digests[0]),
              fan_out_stable ? "stable" : "UNSTABLE");

  report.add("duration_s", duration_s)
      .add("recorded_events", recorded.oplog_recorded)
      .add("record_wall_s", bench::Json::fixed(record_wall, 4))
      .add("replay_wall_s", bench::Json::fixed(replay_wall, 4))
      .add("wall_speedup", bench::Json::fixed(wall_speedup, 2))
      .add("bytes_equal", bytes_equal)
      .add("replay_divergences", replayed.replay_divergences)
      .add("clean_replay_runs", clean.replay_runs)
      .add("clean_mismatched_words", clean.replay.mismatched_words)
      .add("storm_chains", storm_stats.chains)
      .add("storm_unique_chains", storm_stats.unique_chains)
      .add("storm_duplicate_ratio",
           bench::Json::fixed(storm_stats.duplicate_ratio(), 4))
      .add("storm_naive_cost", storm_stats.naive_cost)
      .add("storm_dedup_cost", storm_stats.dedup_cost)
      .add("seeded_corruptions", corrupted_offsets.size())
      .add("structural_findings", structural_findings)
      .add("replay_detected", detected);
  report.add_gate_verdicts();
  return report.finish(json_path);
}
