// Shared helpers for the per-table/figure benchmark binaries.
#pragma once

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "callproc/native_client.hpp"
#include "db/shard_router.hpp"
#include "experiments/audit_runner.hpp"
#include "experiments/campaign.hpp"
#include "experiments/replay_workload.hpp"
#include "obs/capture.hpp"

namespace wtc::bench {

namespace detail {

/// Names every flag() / flag_str() call has registered, so campaign_init
/// can reject typo'd flags instead of silently ignoring them.
inline std::vector<std::string>& known_flags() {
  static std::vector<std::string> names;
  return names;
}

inline void remember_flag(const char* name) {
  for (const auto& existing : known_flags()) {
    if (existing == name) {
      return;
    }
  }
  known_flags().push_back(name);
}

[[noreturn]] inline void usage_error(const char* argv0,
                                     const std::string& message) {
  std::fprintf(stderr, "%s: %s\nknown flags:", argv0, message.c_str());
  for (const auto& name : known_flags()) {
    std::fprintf(stderr, " --%s=<value>", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace detail

/// Parses `--name=value` style integer flags (e.g. --runs=30). A
/// malformed value (`--runs=ten`, `--runs=`, `--runs=-1`) is a usage
/// error, not a silent 0-run campaign.
inline std::size_t flag(int argc, char** argv, const char* name,
                        std::size_t default_value) {
  detail::remember_flag(name);
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      const char* text = argv[i] + prefix.size();
      char* end = nullptr;
      errno = 0;
      const unsigned long long value = std::strtoull(text, &end, 10);
      if (*text == '\0' || *end != '\0' || *text == '-' || errno == ERANGE) {
        detail::usage_error(argv[0], std::string("invalid value for --") +
                                         name + ": '" + text +
                                         "' (expected an unsigned integer)");
      }
      return static_cast<std::size_t>(value);
    }
  }
  return default_value;
}

/// Parses `--runs=N`, a campaign bench's run count. Rejects 0 as a
/// usage error: a zero-run campaign measures nothing, and the per-run
/// averages divide by the run count.
inline std::size_t runs_flag(int argc, char** argv, std::size_t default_value) {
  const std::size_t runs = flag(argc, argv, "runs", default_value);
  if (runs == 0) {
    detail::usage_error(argv[0],
                        "invalid value for --runs: 0 (need at least one run)");
  }
  return runs;
}

/// The Table-2 experiment configuration. The controller tables are sized
/// so the native client's offered load (16 threads, 20-30 s calls, 10 s
/// inter-arrival) produces production-like record occupancy.
inline experiments::AuditRunParams table2_params() {
  experiments::AuditRunParams params;
  params.duration = 2000 * static_cast<sim::Duration>(sim::kSecond);
  params.injector.inter_arrival = 20 * static_cast<sim::Duration>(sim::kSecond);
  params.injector.arrival = inject::ArrivalModel::Fixed;
  params.audit.period = 10 * static_cast<sim::Duration>(sim::kSecond);
  // The production controller's database is mostly live data: with ~11
  // concurrent calls, these table sizes give the same high occupancy, and
  // the audit cost scale recreates its per-pass CPU load (the source of
  // Table 3's call-setup overhead).
  params.schema.process_records = 16;
  params.schema.connection_records = 16;
  params.schema.resource_records = 20;
  params.schema.config_records = 8;
  params.schema.subscriber_records = 16;
  params.audit.engine.cost_scale = 80.0;
  params.seed = 20010701;  // DSN 2001
  return params;
}

/// Parses and validates the `--shards=N` flag for sharded-database
/// benches. Rejects 0 (there is no zero-shard database) and any
/// non-power-of-2 count — the router resolves keys by masking a mixed
/// 64-bit key with (N-1), so a non-power-of-2 N would silently route
/// everything into the low shards instead of erroring. Both rejections
/// are usage errors naming the constraint, in the same style as the
/// other flag validation here.
inline std::uint32_t shards_flag(int argc, char** argv,
                                 std::size_t default_value) {
  const std::size_t shards = flag(argc, argv, "shards", default_value);
  if (shards == 0) {
    detail::usage_error(argv[0],
                        "invalid value for --shards: 0 (need at least one "
                        "shard)");
  }
  if (!db::ShardRouter::valid_shard_count(static_cast<std::uint32_t>(shards)) ||
      shards > 0xFFFFFFFFull) {
    detail::usage_error(
        argv[0], "invalid value for --shards: " + std::to_string(shards) +
                     " (must be a power of two: the shard router masks the "
                     "hashed subscriber key with shards-1)");
  }
  return static_cast<std::uint32_t>(shards);
}

/// Parses `--name=value` string flags (e.g. --csv=fig3.csv).
inline std::string flag_str(int argc, char** argv, const char* name,
                            const char* default_value = "") {
  detail::remember_flag(name);
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return default_value;
}

/// Call once per bench main, AFTER all flag()/flag_str() parsing:
/// 1. wires the fleet-wide `--jobs=N` flag (default: all hardware
///    threads; `--jobs=1` = the exact legacy serial path) and
///    `--progress=0|1` (stderr progress line, default on) into the
///    campaign runner,
/// 2. wires `--metrics=<file>` (aggregated counters/histograms, .json or
///    .csv by extension) and `--trace=<file>` (Chrome trace-event JSON,
///    load in chrome://tracing) into the observability capture — when
///    neither is given no capture is installed and the instrumentation
///    stays inert (stdout is byte-identical), and
/// 3. wires `--record-oplog=<file>` (stream-record run 0's op log) and
///    `--replay-oplog=<file>` (drive every run from a captured log via
///    the zero-simulation engine) into run_audit_series, and
/// 4. rejects any argv entry that matches no registered flag — a typo'd
///    flag name is a usage error, not a silently ignored no-op.
inline void campaign_init(int argc, char** argv) {
  const std::size_t jobs = flag(argc, argv, "jobs", 0);
  const std::size_t progress = flag(argc, argv, "progress", 1);
  const std::string metrics = flag_str(argc, argv, "metrics", "");
  const std::string trace = flag_str(argc, argv, "trace", "");
  const std::string record_oplog = flag_str(argc, argv, "record-oplog", "");
  const std::string replay_oplog = flag_str(argc, argv, "replay-oplog", "");
  experiments::set_default_campaign_jobs(jobs);
  experiments::set_campaign_progress(progress != 0);
  experiments::set_default_record_oplog(record_oplog);
  experiments::set_default_replay_oplog(replay_oplog);
  if (!metrics.empty() || !trace.empty()) {
    obs::install_global_capture(metrics, trace);
  }
  for (int i = 1; i < argc; ++i) {
    bool matched = false;
    for (const auto& name : detail::known_flags()) {
      const std::string prefix = "--" + name + "=";
      if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
        matched = true;
        break;
      }
    }
    if (!matched) {
      detail::usage_error(argv[0], std::string("unknown argument '") +
                                       argv[i] + "'");
    }
  }
}

/// Writes rows (first row = header) as CSV for external plotting.
inline void write_csv(const std::string& path,
                      const std::vector<std::vector<std::string>>& rows) {
  if (path.empty()) {
    return;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return;
  }
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::fprintf(file, "%s%s", row[i].c_str(), i + 1 < row.size() ? "," : "");
    }
    std::fprintf(file, "\n");
  }
  std::fclose(file);
  std::printf("(series written to %s)\n", path.c_str());
}

}  // namespace wtc::bench
