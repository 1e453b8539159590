// oplog_inspect — offline inspection of whole-run op-log captures
// (--record-oplog output, workloads/*.oplog).
//
// Decodes the log through the same trust-boundary reader the replay
// consumers use (db/run_op_log.hpp), then summarizes: event and byte
// counts, per-op / per-thread / per-table breakdowns, and the
// chain-dedup ratio the replay audit's deduplicated re-execution will
// see. The chains and their dedup classes come from the replay auditor
// itself (audit::ReplayAuditor::classify over a pristine controller
// database, the schema every shipped capture records), so the printed
// ratio is the `replay.deduped / replay.chains` the audit will report.
//
//   oplog_inspect <log>            text summary
//   oplog_inspect --json <log>     JSON (for CI artifact diffing)
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "audit/replay.hpp"
#include "common/table_printer.hpp"
#include "db/controller_schema.hpp"
#include "db/run_op_log.hpp"

using namespace wtc;

namespace {

const char* op_name(db::ApiOp op) {
  switch (op) {
    case db::ApiOp::Init: return "DBinit";
    case db::ApiOp::Close: return "DBclose";
    case db::ApiOp::ReadRec: return "DBread";
    case db::ApiOp::ReadFld: return "DBreadfield";
    case db::ApiOp::WriteRec: return "DBwrite";
    case db::ApiOp::WriteFld: return "DBwritefield";
    case db::ApiOp::Move: return "DBmove";
    case db::ApiOp::Alloc: return "DBalloc";
    case db::ApiOp::Free: return "DBfree";
    case db::ApiOp::TxnBegin: return "DBtxnbegin";
    case db::ApiOp::TxnEnd: return "DBtxnend";
  }
  return "?";
}

struct Summary {
  std::size_t events = 0;
  std::size_t updates = 0;
  sim::Time first_time = 0;
  sim::Time last_time = 0;
  std::map<db::ApiOp, std::size_t> by_op;
  std::map<std::uint32_t, std::size_t> by_thread;
  std::map<db::TableId, std::size_t> by_table;
  std::size_t chains = 0;
  std::size_t unique_chains = 0;
};

Summary summarize(const std::vector<db::ApiEvent>& events) {
  Summary s;
  s.events = events.size();
  for (const db::ApiEvent& event : events) {
    if (s.by_op.empty()) {
      s.first_time = event.time;
    }
    s.last_time = event.time;
    ++s.by_op[event.op];
    ++s.by_thread[event.thread];
    ++s.by_table[event.table];
    if (event.is_update) {
      ++s.updates;
    }
  }
  const auto database = db::make_controller_database();
  audit::ReplayAuditor auditor(*database, audit::ReplayConfig{});
  const audit::ReplayStats stats = auditor.classify(events);
  s.chains = stats.chains;
  s.unique_chains = stats.unique_chains;
  return s;
}

void print_text(const std::string& path, std::size_t bytes, const Summary& s) {
  std::printf("op log %s: %zu bytes, %zu events (%zu updates), time %llu..%llu\n",
              path.c_str(), bytes, s.events, s.updates,
              static_cast<unsigned long long>(s.first_time),
              static_cast<unsigned long long>(s.last_time));
  common::TablePrinter ops({"op", "events"});
  for (const auto& [op, count] : s.by_op) {
    ops.add_row({op_name(op), std::to_string(count)});
  }
  std::printf("%s", ops.render().c_str());
  common::TablePrinter threads({"thread", "events"});
  for (const auto& [thread, count] : s.by_thread) {
    threads.add_row({std::to_string(thread), std::to_string(count)});
  }
  std::printf("%s", threads.render().c_str());
  common::TablePrinter tables({"table", "events"});
  for (const auto& [table, count] : s.by_table) {
    tables.add_row({std::to_string(table), std::to_string(count)});
  }
  std::printf("%s", tables.render().c_str());
  const double ratio =
      s.chains == 0 ? 0.0
                    : static_cast<double>(s.chains - s.unique_chains) /
                          static_cast<double>(s.chains);
  std::printf(
      "replay chains: %zu (%zu unique, duplicate ratio %.1f%% — the replay "
      "audit executes only the unique ones)\n",
      s.chains, s.unique_chains, 100.0 * ratio);
}

void print_json(const std::string& path, std::size_t bytes, const Summary& s) {
  std::printf("{\n  \"file\": \"%s\",\n  \"bytes\": %zu,\n", path.c_str(),
              bytes);
  std::printf("  \"events\": %zu,\n  \"updates\": %zu,\n", s.events, s.updates);
  std::printf("  \"first_time\": %llu,\n  \"last_time\": %llu,\n",
              static_cast<unsigned long long>(s.first_time),
              static_cast<unsigned long long>(s.last_time));
  const auto map_json = [](const char* key, const auto& counts,
                           const auto& name_of) {
    std::printf("  \"%s\": {", key);
    bool first = true;
    for (const auto& [k, count] : counts) {
      std::printf("%s\"%s\": %zu", first ? "" : ", ", name_of(k).c_str(),
                  count);
      first = false;
    }
    std::printf("},\n");
  };
  map_json("by_op", s.by_op,
           [](db::ApiOp op) { return std::string(op_name(op)); });
  map_json("by_thread", s.by_thread,
           [](std::uint32_t thread) { return std::to_string(thread); });
  map_json("by_table", s.by_table,
           [](db::TableId table) { return std::to_string(table); });
  const double ratio =
      s.chains == 0 ? 0.0
                    : static_cast<double>(s.chains - s.unique_chains) /
                          static_cast<double>(s.chains);
  std::printf("  \"chains\": %zu,\n  \"unique_chains\": %zu,\n", s.chains,
              s.unique_chains);
  std::printf("  \"duplicate_ratio\": %.4f\n}\n", ratio);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  const char* path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s [--json] <oplog-file>\n", argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s [--json] <oplog-file>\n", argv[0]);
    return 2;
  }
  const db::OpLogReadResult log = db::load_op_log(path);
  if (!log.ok()) {
    std::fprintf(stderr, "error: %s: %s at byte %zu\n", path,
                 std::string(db::to_string(log.error)).c_str(),
                 log.error_offset);
    return 1;
  }
  std::size_t bytes = 0;
  if (std::FILE* file = std::fopen(path, "rb")) {
    std::fseek(file, 0, SEEK_END);
    bytes = static_cast<std::size_t>(std::ftell(file));
    std::fclose(file);
  }
  const Summary s = summarize(log.events);
  if (json) {
    print_json(path, bytes, s);
  } else {
    print_text(path, bytes, s);
  }
  return 0;
}
