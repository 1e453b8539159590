#include "audit/replay.hpp"

#include <algorithm>
#include <unordered_map>

#include "audit/engine.hpp"
#include "obs/metrics.hpp"

namespace wtc::audit {
namespace {

// FNV-1a, 64-bit: the chain-signature mixer. Not cryptographic — a
// signature collision merely merges two chains' dedup classes, and the
// shadow compare still catches any end-state divergence that causes.
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix(std::uint64_t& hash, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (i * 8)) & 0xFFu;
    hash *= kFnvPrime;
  }
}

/// Is this event one of the region-mutating ops replay interprets?
[[nodiscard]] bool replayable(const db::ApiEvent& event) noexcept {
  if (!event.is_update || event.status != db::Status::Ok) {
    return false;
  }
  switch (event.op) {
    case db::ApiOp::WriteRec:
    case db::ApiOp::WriteFld:
    case db::ApiOp::Move:
    case db::ApiOp::Alloc:
    case db::ApiOp::Free:
      return true;
    default:
      return false;
  }
}

/// Mirrors db::direct::relink_table on a raw shadow span, storing every
/// link word: the shadow has no dirty tracking to spare.
void relink_shadow_table(std::span<std::byte> shadow, const db::Layout& layout,
                         db::TableId t) {
  std::vector<std::uint32_t> expected;
  db::group_links(shadow, layout.table(t), expected);
  for (db::RecordIndex r = 0; r < expected.size(); ++r) {
    db::store_u32(shadow, layout.record_offset(t, r) + 12, expected[r]);
  }
}

/// A maximal contiguous run of mismatching 32-bit words.
struct MismatchRun {
  std::size_t offset = 0;
  std::size_t length = 0;
};

/// Modelled CPU cost of comparing one compare_grain slice (µs, scaled).
constexpr std::uint32_t kCostPerCompareChunk = 4;

[[nodiscard]] sim::Duration scaled(std::uint64_t items, std::uint32_t per_item) noexcept {
  return static_cast<sim::Duration>(static_cast<double>(items) *
                                    static_cast<double>(per_item) * kReplayCostScale);
}

}  // namespace

ReplayAuditor::ReplayAuditor(const db::Database& db, ReplayConfig config)
    : db_(db), config_(config) {
  if (config_.replay_threads > 1) {
    pool_ = std::make_unique<common::WorkerPool>(config_.replay_threads - 1);
  }
}

template <typename Job>
void ReplayAuditor::dispatch(std::size_t workers, const Job& job) {
  if (pool_ != nullptr && workers > 1) {
    pool_->dispatch(workers, job);
  } else {
    for (std::size_t w = 0; w < workers; ++w) {
      job(w);
    }
  }
}

std::uint64_t ReplayAuditor::chain_signature(
    const Chain& chain, std::span<const db::ApiEvent> events) const {
  std::uint64_t hash = kFnvOffset;
  mix(hash, chain.table);
  const db::ApiEvent& first = events[chain.ops.front()];
  if (first.op != db::ApiOp::Alloc) {
    // The chain's end state depends on where it started: fold in the
    // pristine start state (status, group, every field). Chains that
    // begin with an Alloc are start-independent — Alloc resets the
    // record wholesale — so their signatures stay record-agnostic.
    const auto pristine = db_.pristine();
    const std::size_t at = db_.layout().record_offset(chain.table, chain.record);
    mix(hash, db::load_u32(pristine, at + 4));
    mix(hash, db::load_u32(pristine, at + 8));
    const std::size_t num_fields = db_.layout().table(chain.table).num_fields;
    for (std::size_t f = 0; f < num_fields; ++f) {
      mix(hash, static_cast<std::uint32_t>(
                    db::load_i32(pristine, at + db::kRecordHeaderSize + f * 4)));
    }
  }
  for (const std::uint32_t index : chain.ops) {
    const db::ApiEvent& event = events[index];
    mix(hash, static_cast<std::uint8_t>(event.op));
    mix(hash, event.group);
    mix(hash, event.field);
    mix(hash, event.payload_len);
    for (std::uint8_t f = 0; f < event.payload_len; ++f) {
      mix(hash, static_cast<std::uint32_t>(event.payload[f]));
    }
  }
  return hash;
}

ReplayAuditor::RecordState ReplayAuditor::execute_chain(
    const Chain& chain, std::span<const db::ApiEvent> events) const {
  const auto& layout = db_.layout();
  const auto& fields = db_.schema().tables.at(chain.table).fields;
  const std::size_t num_fields = layout.table(chain.table).num_fields;
  const std::size_t at = layout.record_offset(chain.table, chain.record);

  RecordState state;
  state.fields.resize(num_fields);
  const auto pristine = db_.pristine();
  state.status = db::load_u32(pristine, at + 4);
  state.group = db::load_u32(pristine, at + 8);
  for (std::size_t f = 0; f < num_fields; ++f) {
    state.fields[f] = db::load_i32(pristine, at + db::kRecordHeaderSize + f * 4);
  }
  const auto scrub = [&]() {
    for (std::size_t f = 0; f < num_fields; ++f) {
      state.fields[f] = fields[f].default_value;
    }
  };
  for (const std::uint32_t index : chain.ops) {
    const db::ApiEvent& event = events[index];
    switch (event.op) {
      case db::ApiOp::Alloc:
        state.status = db::kStatusActive;
        state.group = event.group;
        scrub();
        break;
      case db::ApiOp::WriteRec: {
        // Update events snapshot the record's post-write fields
        // (min(num_fields, 8) of them — every shipped schema fits).
        const std::size_t n =
            std::min<std::size_t>(event.payload_len, num_fields);
        for (std::size_t f = 0; f < n; ++f) {
          state.fields[f] = event.payload[f];
        }
        break;
      }
      case db::ApiOp::WriteFld:
        if (event.field < num_fields && event.payload_len >= 1) {
          state.fields[event.field] = event.payload[0];
        }
        break;
      case db::ApiOp::Move:
        state.group = event.group;
        break;
      case db::ApiOp::Free:
        state.status = db::kStatusFree;
        state.group = 0;
        scrub();
        break;
      default:
        break;
    }
  }
  return state;
}

ReplayResult ReplayAuditor::run(std::span<const db::ApiEvent> events) {
  const auto& layout = db_.layout();
  ReplayResult result;
  ReplayStats& stats = result.stats;

  // --- select + group: per-(table, record) chains, arrival order,
  // segmented at lifecycle boundaries — every Alloc starts a fresh chain
  // (the record is reborn from a state Alloc fully determines), so
  // repeated call cycles on a reused record slot become *separate*
  // record-agnostic chains the dedup pass can collapse ---
  std::vector<Chain> chains;
  std::unordered_map<std::uint64_t, std::size_t> chain_of;  // key -> index
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(events.size()); ++i) {
    const db::ApiEvent& event = events[i];
    if (!replayable(event) || event.table >= layout.tables().size() ||
        event.record >= layout.table(event.table).num_records) {
      continue;
    }
    ++stats.total_ops;
    const std::uint64_t key =
        static_cast<std::uint64_t>(event.table) << 32 | event.record;
    auto it = chain_of.find(key);
    if (it == chain_of.end() || event.op == db::ApiOp::Alloc) {
      it = chain_of.insert_or_assign(key, chains.size()).first;
      chains.push_back(Chain{event.table, event.record, {}, 0, 0});
    }
    chains[it->second].ops.push_back(i);
  }
  stats.chains = chains.size();

  // --- dedup: signature -> first chain with it becomes the executor ---
  std::vector<std::size_t> uniques;  // chain indices, discovery order
  std::unordered_map<std::uint64_t, std::size_t> unique_of;  // sig -> slot
  for (auto& chain : chains) {
    chain.signature = chain_signature(chain, events);
    const auto [it, inserted] =
        unique_of.try_emplace(chain.signature, uniques.size());
    if (inserted) {
      uniques.push_back(static_cast<std::size_t>(&chain - chains.data()));
    }
    chain.unique_index = it->second;
  }
  stats.unique_chains = uniques.size();
  obs::count(obs::Counter::replay_chains, stats.chains);
  obs::count(obs::Counter::replay_deduped, stats.deduped());

  // --- execute each unique chain exactly once (parallel, strided into
  // preallocated slots: bit-identical at any worker count) ---
  std::vector<RecordState> end_states(uniques.size());
  std::vector<sim::Duration> chain_costs(uniques.size(), 0);
  const std::size_t workers = std::max<std::size_t>(1, config_.replay_threads);
  dispatch(workers, [&](std::size_t w) {
    for (std::size_t u = w; u < uniques.size(); u += workers) {
      end_states[u] = execute_chain(chains[uniques[u]], events);
    }
  });
  for (std::size_t u = 0; u < uniques.size(); ++u) {
    const std::uint64_t ops = chains[uniques[u]].ops.size();
    stats.executed_ops += ops;
    chain_costs[u] = scaled(ops, kReplayCostPerOp);
  }
  obs::count(obs::Counter::replay_exec_ops, stats.executed_ops);

  // --- build the shadow: pristine image + every chain's end state, then
  // recompute each table's group links (replay's analog of relink).
  // Chains are applied in creation order (chronological by segment
  // start), so a record's last lifecycle overwrites its earlier ones ---
  const auto pristine = db_.pristine();
  std::vector<std::byte> shadow(pristine.begin(), pristine.end());
  for (const Chain& chain : chains) {
    const RecordState& state = end_states[chain.unique_index];
    const std::size_t at = layout.record_offset(chain.table, chain.record);
    db::store_u32(shadow, at + 4, state.status);
    db::store_u32(shadow, at + 8, state.group);
    for (std::size_t f = 0; f < state.fields.size(); ++f) {
      db::store_i32(shadow, at + db::kRecordHeaderSize + f * 4,
                    state.fields[f]);
    }
  }
  for (std::size_t t = 0; t < layout.tables().size(); ++t) {
    relink_shadow_table(shadow, layout, static_cast<db::TableId>(t));
  }

  // --- compare shadow vs live, word-for-word, fixed-grain slices merged
  // in slice order ---
  const auto live = db_.region();
  const std::size_t grain = std::max<std::size_t>(4, config_.compare_grain_bytes);
  const std::size_t tasks = (live.size() + grain - 1) / grain;
  std::vector<std::vector<MismatchRun>> task_runs(tasks);
  dispatch(workers, [&](std::size_t w) {
    for (std::size_t task = w; task < tasks; task += workers) {
      const std::size_t begin = task * grain;
      const std::size_t end = std::min(live.size(), begin + grain);
      auto& runs = task_runs[task];
      for (std::size_t at = begin; at + 4 <= end; at += 4) {
        if (db::load_u32(live, at) == db::load_u32(shadow, at)) {
          continue;
        }
        if (!runs.empty() && runs.back().offset + runs.back().length == at) {
          runs.back().length += 4;
        } else {
          runs.push_back(MismatchRun{at, 4});
        }
      }
    }
  });
  std::vector<MismatchRun> runs;
  for (const auto& task : task_runs) {
    for (const MismatchRun& run : task) {
      if (!runs.empty() && runs.back().offset + runs.back().length == run.offset) {
        runs.back().length += run.length;  // coalesce across slice seams
      } else {
        runs.push_back(run);
      }
    }
  }
  for (const MismatchRun& run : runs) {
    stats.mismatched_words += run.length / 4;
    Finding finding;
    finding.technique = Technique::ReplayCheck;
    finding.recovery = Recovery::None;
    finding.offset = run.offset;
    finding.length = run.length;
    if (const auto loc = layout.locate(run.offset)) {
      finding.table = loc->table;
      finding.record = loc->record;
      if (!loc->in_header) {
        const std::size_t record_at =
            layout.record_offset(loc->table, loc->record);
        finding.field = static_cast<db::FieldId>(
            (run.offset - record_at - db::kRecordHeaderSize) / 4);
      }
    }
    result.findings.push_back(finding);
  }
  obs::count(obs::Counter::replay_mismatches, stats.mismatched_words);

  // --- cost model: same µs-and-scale convention as the engine; the
  // makespan is the two parallel phases' critical paths back to back ---
  std::vector<sim::Duration> compare_costs(tasks, scaled(1, kCostPerCompareChunk));
  const sim::Duration compare_cost = scaled(tasks, kCostPerCompareChunk);
  stats.naive_cost = scaled(stats.total_ops, kReplayCostPerOp) + compare_cost;
  stats.dedup_cost = scaled(stats.executed_ops, kReplayCostPerOp) + compare_cost;
  std::vector<sim::Duration> load;
  stats.makespan = AuditEngine::greedy_makespan(chain_costs, workers, load) +
                   AuditEngine::greedy_makespan(compare_costs, workers, load);
  return result;
}

}  // namespace wtc::audit
