#include "audit/replay.hpp"

#include <algorithm>

#include "audit/engine.hpp"
#include "obs/metrics.hpp"

namespace wtc::audit {
namespace {

// The chain-signature mixer: one whole 64-bit word per step, a
// multiply to spread it upward and a shift to fold the high half back
// down. Not cryptographic — a signature collision merely merges two
// chains' dedup classes, and the shadow compare still catches any
// end-state divergence that causes.
constexpr std::uint64_t kMixSeed = 0x243F6A8885A308D3ull;
constexpr std::uint64_t kMixMultiplier = 0x9E3779B97F4A7C15ull;

[[nodiscard]] constexpr std::uint64_t mix(std::uint64_t hash, std::uint64_t word) noexcept {
  hash = (hash ^ word) * kMixMultiplier;
  return hash ^ (hash >> 32);
}

/// Two 32-bit values as one mixer word.
[[nodiscard]] constexpr std::uint64_t pack(std::uint32_t low, std::uint32_t high) noexcept {
  return static_cast<std::uint64_t>(high) << 32 | low;
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
/// link word: the shadow has no dirty tracking to spare. `links` is the
/// caller's reused buffer.
void relink_shadow_table(std::span<std::byte> shadow, const db::Layout& layout,
                         db::TableId t, std::vector<std::uint32_t>& links) {
  db::group_links(shadow, layout.table(t), links);
  for (db::RecordIndex r = 0; r < links.size(); ++r) {
    db::store_u32(shadow, layout.record_offset(t, r) + 12, links[r]);
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
  std::size_t records = 0;
  for (const db::TableLayout& table : db_.layout().tables()) {
    record_base_.push_back(records);
    records += table.num_records;
  }
  record_base_.push_back(records);
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

void ReplayAuditor::group(std::span<const db::ApiEvent> events, ReplayStats& stats) {
  // Per-(table, record) chains, arrival order, segmented at lifecycle
  // boundaries: every Alloc starts a fresh chain (the record is reborn
  // from a state Alloc fully determines), so repeated call cycles on a
  // reused record slot become *separate* record-agnostic chains the
  // dedup pass can collapse. One pass assigns each op its chain and
  // counts the chain's ops; a counting sort then lays the ops out chain
  // by chain.
  const auto& layout = db_.layout();
  chains_.clear();
  chain_begin_.assign(1, 0);
  current_.assign(record_base_.back(), kNoChain);
  op_chain_.assign(events.size(), kNoChain);
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(events.size()); ++i) {
    const db::ApiEvent& event = events[i];
    if (!replayable(event) || event.table >= layout.tables().size() ||
        event.record >= layout.table(event.table).num_records) {
      continue;
    }
    std::uint32_t& chain = current_[record_key(event.table, event.record)];
    if (chain == kNoChain || event.op == db::ApiOp::Alloc) {
      chain = static_cast<std::uint32_t>(chains_.size());
      chains_.push_back(Chain{event.table, event.record, 0});
      chain_begin_.push_back(0);
    }
    ++chain_begin_[chain + 1];
    op_chain_[i] = chain;
  }
  for (std::size_t c = 1; c < chain_begin_.size(); ++c) {
    chain_begin_[c] += chain_begin_[c - 1];
  }
  cursor_.assign(chain_begin_.begin(), chain_begin_.end() - 1);
  chain_ops_.resize(chain_begin_.back());
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(events.size()); ++i) {
    if (op_chain_[i] != kNoChain) {
      chain_ops_[cursor_[op_chain_[i]]++] = i;
    }
  }
  stats.total_ops = chain_ops_.size();
  stats.chains = chains_.size();
}

void ReplayAuditor::dedup(std::span<const db::ApiEvent> events, ReplayStats& stats) {
  // The first chain with each signature becomes its class's executor.
  uniques_.clear();
  unique_of_.clear();
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    const auto [it, inserted] = unique_of_.try_emplace(
        chain_signature(c, events), static_cast<std::uint32_t>(uniques_.size()));
    if (inserted) {
      uniques_.push_back(static_cast<std::uint32_t>(c));
      stats.executed_ops += ops_of(c).size();
    }
    chains_[c].unique = it->second;
  }
  stats.unique_chains = uniques_.size();
}

ReplayStats ReplayAuditor::classify(std::span<const db::ApiEvent> events) {
  ReplayStats stats;
  group(events, stats);
  dedup(events, stats);
  return stats;
}

std::uint64_t ReplayAuditor::chain_signature(
    std::size_t chain, std::span<const db::ApiEvent> events) const {
  const Chain& c = chains_[chain];
  const std::span<const std::uint32_t> ops = ops_of(chain);
  std::uint64_t hash = mix(kMixSeed, c.table);
  if (events[ops.front()].op != db::ApiOp::Alloc) {
    // The chain's end state depends on where it started: fold in the
    // pristine start state (status, group, every field). Chains that
    // begin with an Alloc are start-independent — Alloc resets the
    // record wholesale — so their signatures stay record-agnostic.
    const auto pristine = db_.pristine();
    const std::size_t at = db_.layout().record_offset(c.table, c.record);
    hash = mix(hash, pack(db::load_u32(pristine, at + 4), db::load_u32(pristine, at + 8)));
    const std::size_t fields_at = at + db::kRecordHeaderSize;
    const std::size_t num_fields = db_.layout().table(c.table).num_fields;
    std::size_t f = 0;
    for (; f + 2 <= num_fields; f += 2) {
      hash = mix(hash, pack(db::load_u32(pristine, fields_at + f * 4),
                            db::load_u32(pristine, fields_at + f * 4 + 4)));
    }
    if (f < num_fields) {
      hash = mix(hash, db::load_u32(pristine, fields_at + f * 4));
    }
  }
  // One word per op (op, payload length, field, group), then its payload
  // two words at a time; the length in the op word keeps the stream
  // unambiguous.
  for (const std::uint32_t index : ops) {
    const db::ApiEvent& event = events[index];
    hash = mix(hash, pack(static_cast<std::uint32_t>(event.op) |
                              static_cast<std::uint32_t>(event.payload_len) << 8 |
                              static_cast<std::uint32_t>(event.field) << 16,
                          event.group));
    std::uint8_t f = 0;
    for (; f + 2 <= event.payload_len; f += 2) {
      hash = mix(hash, pack(static_cast<std::uint32_t>(event.payload[f]),
                            static_cast<std::uint32_t>(event.payload[f + 1])));
    }
    if (f < event.payload_len) {
      hash = mix(hash, static_cast<std::uint32_t>(event.payload[f]));
    }
  }
  return hash;
}

void ReplayAuditor::execute_chain(std::size_t chain, std::span<const db::ApiEvent> events,
                                  std::span<std::uint32_t> state) const {
  const Chain& c = chains_[chain];
  const auto& fields = db_.schema().tables.at(c.table).fields;
  const std::size_t num_fields = state.size() - 2;
  const std::size_t at = db_.layout().record_offset(c.table, c.record);

  std::uint32_t& status = state[0];
  std::uint32_t& group = state[1];
  const std::span<std::uint32_t> values = state.subspan(2);
  const auto pristine = db_.pristine();
  status = db::load_u32(pristine, at + 4);
  group = db::load_u32(pristine, at + 8);
  for (std::size_t f = 0; f < num_fields; ++f) {
    values[f] = db::load_u32(pristine, at + db::kRecordHeaderSize + f * 4);
  }
  const auto scrub = [&]() {
    for (std::size_t f = 0; f < num_fields; ++f) {
      values[f] = static_cast<std::uint32_t>(fields[f].default_value);
    }
  };
  for (const std::uint32_t index : ops_of(chain)) {
    const db::ApiEvent& event = events[index];
    switch (event.op) {
      case db::ApiOp::Alloc:
        status = db::kStatusActive;
        group = event.group;
        scrub();
        break;
      case db::ApiOp::WriteRec: {
        // Update events snapshot the record's post-write fields
        // (min(num_fields, 8) of them — every shipped schema fits).
        const std::size_t n =
            std::min<std::size_t>(event.payload_len, num_fields);
        for (std::size_t f = 0; f < n; ++f) {
          values[f] = static_cast<std::uint32_t>(event.payload[f]);
        }
        break;
      }
      case db::ApiOp::WriteFld:
        if (event.field < num_fields && event.payload_len >= 1) {
          values[event.field] = static_cast<std::uint32_t>(event.payload[0]);
        }
        break;
      case db::ApiOp::Move:
        group = event.group;
        break;
      case db::ApiOp::Free:
        status = db::kStatusFree;
        group = 0;
        scrub();
        break;
      default:
        break;
    }
  }
}

ReplayResult ReplayAuditor::run(std::span<const db::ApiEvent> events) {
  const auto& layout = db_.layout();
  ReplayResult result;
  ReplayStats& stats = result.stats;

  stats = classify(events);
  obs::count(obs::Counter::replay_chains, stats.chains);
  obs::count(obs::Counter::replay_deduped, stats.deduped());

  // --- execute each unique chain exactly once (parallel, strided into
  // preallocated arena slots: bit-identical at any worker count) ---
  state_at_.resize(uniques_.size() + 1);
  state_at_[0] = 0;
  std::vector<sim::Duration> chain_costs(uniques_.size(), 0);
  for (std::size_t u = 0; u < uniques_.size(); ++u) {
    const Chain& chain = chains_[uniques_[u]];
    state_at_[u + 1] = state_at_[u] + 2 + layout.table(chain.table).num_fields;
    chain_costs[u] = scaled(ops_of(uniques_[u]).size(), kReplayCostPerOp);
  }
  arena_.resize(state_at_.back());
  const auto state_of = [this](std::size_t u) {
    return std::span(arena_).subspan(state_at_[u], state_at_[u + 1] - state_at_[u]);
  };
  const std::size_t workers = std::max<std::size_t>(1, config_.replay_threads);
  dispatch(workers, [&](std::size_t w) {
    for (std::size_t u = w; u < uniques_.size(); u += workers) {
      execute_chain(uniques_[u], events, state_of(u));
    }
  });
  obs::count(obs::Counter::replay_exec_ops, stats.executed_ops);

  // --- build the shadow: pristine image + each record's last chain's
  // end state (its earlier lifecycles are overwritten by it), then
  // recompute each table's group links (replay's analog of relink) ---
  const auto pristine = db_.pristine();
  std::vector<std::byte> shadow(pristine.begin(), pristine.end());
  for (std::size_t c = 0; c < chains_.size(); ++c) {
    const Chain& chain = chains_[c];
    if (current_[record_key(chain.table, chain.record)] != c) {
      continue;
    }
    const std::span<const std::uint32_t> state = state_of(chain.unique);
    const std::size_t at = layout.record_offset(chain.table, chain.record);
    db::store_u32(shadow, at + 4, state[0]);
    db::store_u32(shadow, at + 8, state[1]);
    for (std::size_t f = 2; f < state.size(); ++f) {
      db::store_u32(shadow, at + db::kRecordHeaderSize + (f - 2) * 4, state[f]);
    }
  }
  for (std::size_t t = 0; t < layout.tables().size(); ++t) {
    relink_shadow_table(shadow, layout, static_cast<db::TableId>(t), links_);
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
