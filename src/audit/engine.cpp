#include "audit/engine.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "common/crc32.hpp"
#include "db/direct.hpp"
#include "obs/metrics.hpp"

namespace wtc::audit {

namespace {

/// Books one check invocation in the observability layer. Every scan
/// (run_unit, which the one-shot checks and both cycles go through) and
/// the event check funnel their result through here, so `audit.checks`
/// counts check invocations uniformly no matter which element drove them.
CheckResult tally(CheckResult result) {
  obs::count(obs::Counter::audit_checks);
  obs::observe(obs::Histogram::audit_check_cost_us,
               static_cast<std::uint64_t>(result.cost));
  return result;
}

/// This many *consecutive* corrupted headers indicate table/record
/// misalignment; the whole database is reloaded from disk (§4.3.2).
constexpr std::uint32_t kConsecutiveHeaderThreshold = 3;

/// Selective monitoring (§4.4.2): a value is suspect when its occurrence
/// count is below kSelectiveFraction * the mean occurrences, and only a
/// peaked distribution (at least kSelectiveMinMeanOccurrences per value)
/// is trusted to derive such an invariant from.
constexpr double kSelectiveFraction = 0.3;
constexpr double kSelectiveMinMeanOccurrences = 4.0;

/// A record was skipped without being verified: pull the scan's `mark`
/// below its write generation `gen` so the next incremental scan revisits
/// it. Callers pass the generation from the same domain their dirty test
/// uses (record_generation for structure, field_generation for the content
/// checks).
void hold_watermark(std::uint64_t gen, std::uint64_t& mark) {
  if (gen > 0) {
    mark = std::min(mark, gen - 1);
  }
}

/// "No such field" in the engine's per-table field indexes.
constexpr db::FieldId kNoField = 0xFFFF;

}  // namespace

std::string_view to_string(Technique technique) noexcept {
  switch (technique) {
    case Technique::StaticChecksum: return "static-checksum";
    case Technique::RangeCheck: return "range-check";
    case Technique::StructuralCheck: return "structural-check";
    case Technique::SemanticCheck: return "semantic-check";
    case Technique::SelectiveMonitor: return "selective-monitor";
    case Technique::ProgressIndicator: return "progress-indicator";
    case Technique::ElementQuarantine: return "element-quarantine";
    case Technique::CfAttestation: return "cf-attestation";
    case Technique::ReplayCheck: return "replay-check";
  }
  return "?";
}

std::string_view to_string(Recovery recovery) noexcept {
  switch (recovery) {
    case Recovery::None: return "none";
    case Recovery::ReloadSpan: return "reload-span";
    case Recovery::ReloadAll: return "reload-all";
    case Recovery::RepairHeader: return "repair-header";
    case Recovery::ResetField: return "reset-field";
    case Recovery::FreeRecord: return "free-record";
    case Recovery::TerminateClientThread: return "terminate-client-thread";
    case Recovery::KillClientProcess: return "kill-client-process";
    case Recovery::DisableElement: return "disable-element";
    case Recovery::ReenableElement: return "reenable-element";
    case Recovery::HealThread: return "heal-thread";
  }
  return "?";
}

AuditEngine::AuditEngine(db::Database& db, EngineConfig config,
                         std::function<sim::Time()> clock)
    : db_(db), config_(config), clock_(std::move(clock)) {
  // Emulate the production database's audit CPU load on this smaller one.
  const auto scale = [&](std::uint32_t cost) {
    return static_cast<std::uint32_t>(static_cast<double>(cost) *
                                      config_.cost_scale);
  };
  config_.cost_per_record_structural = scale(config_.cost_per_record_structural);
  config_.cost_per_field_range = scale(config_.cost_per_field_range);
  config_.cost_per_loop_semantic = scale(config_.cost_per_loop_semantic);
  config_.cost_per_static_chunk = scale(config_.cost_per_static_chunk);
  config_.cost_event_check = scale(config_.cost_event_check);
  // Golden checksums: chunk every static span and CRC the pristine bytes.
  // The chunk (detection and reload granularity) is the store's dirty-grid
  // chunk, so the incremental scan's dirty test is one grid lookup.
  constexpr std::size_t kChunk = db::Database::kDirtyChunkBytes;
  for (const auto& [offset, length] : db_.static_spans()) {
    for (std::size_t at = offset; at < offset + length; at += kChunk) {
      const std::size_t chunk_len = std::min(kChunk, offset + length - at);
      const auto bytes = db_.pristine().subspan(at, chunk_len);
      static_chunks_.push_back({at, chunk_len, common::crc32(bytes)});
    }
  }
  // Incremental-audit state: watermarks start at 0, i.e. everything the
  // store has ever written (generation >= 1) is dirty for the first cycle.
  const std::size_t tables = db_.table_count();
  structure_watermark_.assign(tables, 0);
  ranges_watermark_.assign(tables, 0);
  selective_watermark_.assign(tables, 0);
  referencing_.resize(tables);
  anchor_table_.assign(tables, 0);
  fk_field_.assign(tables, kNoField);
  pk_field_.assign(tables, kNoField);
  chain_anchor_.reserve(tables);
  for (db::TableId t = 0; t < tables; ++t) {
    const auto& spec = db_.schema().tables[t];
    for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
      const auto& field = spec.fields[f];
      if (field.role == db::FieldRole::ForeignKey) {
        if (fk_field_[t] == kNoField) {
          fk_field_[t] = f;
        }
        if (field.ref_table < tables) {
          referencing_[field.ref_table].emplace_back(t, f);
        }
      } else if (field.role == db::FieldRole::PrimaryKey && pk_field_[t] == kNoField) {
        pk_field_[t] = f;
      }
    }
    anchor_table_[t] =
        static_cast<char>(spec.dynamic && fk_field_[t] != kNoField ? 1 : 0);
    chain_anchor_.emplace_back(
        spec.num_records,
        std::make_pair(db::kNoTable, db::RecordIndex{0}));
    // Flattened record ordinals for the semantic scan's budget-resume index.
    record_ordinal_base_.push_back(total_records_);
    total_records_ += spec.num_records;
  }
}

std::uint64_t AuditEngine::table_dirty_chunks(db::TableId t) const {
  if (t >= db_.table_count()) {
    return 0;
  }
  const auto& tl = db_.layout().table(t);
  const std::uint64_t mark =
      std::min(structure_watermark_[t], ranges_watermark_[t]);
  return db_.region_dirty_chunks_since(
      tl.offset, tl.record_size * static_cast<std::size_t>(tl.num_records),
      mark);
}

template <typename Detect>
void AuditEngine::parallel_detect(std::size_t items, const Detect& detect) {
  if (items == 0) {
    return;
  }
  const std::size_t grain = std::max<std::size_t>(1, config_.parallel_grain);
  const std::size_t tasks = (items + grain - 1) / grain;
  // Logical detection tasks — counted whether or not a pool runs them, so
  // the counter is identical at any audit_threads setting.
  obs::count(obs::Counter::audit_parallel_tasks,
             static_cast<std::uint64_t>(tasks));
  const std::size_t workers = std::min(config_.audit_threads, tasks);
  if (workers <= 1) {
    for (std::size_t i = 0; i < items; ++i) {
      detect(i);
    }
    return;
  }
  if (!pool_) {
    pool_ = std::make_unique<common::WorkerPool>(config_.audit_threads - 1);
  }
  std::atomic<std::size_t> next{0};
  pool_->dispatch(workers, [&](std::size_t) {
    for (;;) {
      const std::size_t task = next.fetch_add(1, std::memory_order_relaxed);
      if (task >= tasks) {
        return;
      }
      const std::size_t end = std::min(items, (task + 1) * grain);
      for (std::size_t i = task * grain; i < end; ++i) {
        detect(i);
      }
    }
  });
}

sim::Duration AuditEngine::greedy_makespan(
    const std::vector<sim::Duration>& task_costs, std::size_t workers,
    std::vector<sim::Duration>& load) {
  // Greedy list scheduling in task order (the deterministic model of a
  // work queue): each task lands on the currently least-loaded worker.
  if (workers <= 1) {
    sim::Duration total = 0;
    for (const sim::Duration cost : task_costs) {
      total += cost;
    }
    return total;
  }
  load.assign(workers, 0);
  for (const sim::Duration cost : task_costs) {
    auto* slot = &load[0];
    for (auto& worker : load) {
      if (worker < *slot) {
        slot = &worker;
      }
    }
    *slot += cost;
  }
  sim::Duration makespan = 0;
  for (const sim::Duration worker : load) {
    makespan = std::max(makespan, worker);
  }
  return makespan;
}

void AuditEngine::report(Finding finding) {
  finding.time = clock_();
  finding.shard = shard_id_;
  obs::count(obs::Counter::audit_findings);
  obs::trace_instant("audit.finding", "audit",
                     static_cast<std::uint64_t>(finding.time));
  if (finding.table != db::kNoTable &&
      finding.table < db_.table_count()) {
    auto& stats = db_.table_stats(finding.table);
    ++stats.errors_detected_total;
    ++stats.errors_last_cycle;
  }
  if (sink_ != nullptr) {
    sink_->on_finding(finding);
  }
}

Finding AuditEngine::record_finding(Technique technique, Recovery recovery,
                                    db::TableId t, db::RecordIndex r) const {
  Finding finding;
  finding.technique = technique;
  finding.recovery = recovery;
  finding.table = t;
  finding.record = r;
  finding.offset = db_.layout().record_offset(t, r);
  finding.length = db_.layout().table(t).record_size;
  return finding;
}

Finding AuditEngine::header_finding(db::TableId t, db::RecordIndex r) const {
  Finding finding =
      record_finding(Technique::StructuralCheck, Recovery::RepairHeader, t, r);
  finding.length = db::kRecordHeaderSize;
  return finding;
}

Finding AuditEngine::field_finding(Technique technique, Recovery recovery,
                                   db::TableId t, db::RecordIndex r,
                                   db::FieldId f) const {
  Finding finding = record_finding(technique, recovery, t, r);
  finding.field = f;
  finding.offset = db_.layout().field_offset(t, r, f);
  finding.length = sizeof(std::int32_t);
  return finding;
}

bool AuditEngine::recently_written(db::TableId t, db::RecordIndex r) const {
  const auto& meta = db_.record_meta(t, r);
  const sim::Time now = clock_();
  return meta.last_access != 0 &&
         now - meta.last_access <
             static_cast<sim::Time>(config_.recent_write_grace);
}

CheckResult AuditEngine::check_static(Scan scan) {
  return run_alone(WorkUnit::Kind::Static, db::kNoTable, scan);
}
CheckResult AuditEngine::check_structure(db::TableId t, Scan scan) {
  return run_alone(WorkUnit::Kind::Structure, t, scan);
}
CheckResult AuditEngine::check_ranges(db::TableId t, Scan scan) {
  return run_alone(WorkUnit::Kind::Ranges, t, scan);
}
CheckResult AuditEngine::check_semantics(Scan scan) {
  return run_alone(WorkUnit::Kind::Semantics, db::kNoTable, scan);
}
CheckResult AuditEngine::check_selective(db::TableId t, Scan scan) {
  return run_alone(WorkUnit::Kind::Selective, t, scan);
}

/// Bookkeeping one scan installment shares with every other: the epoch
/// mark (captured on the scan's first installment), per-detection-task
/// cost booking for the makespan model, the truncate-and-carry point and
/// the "adopt the watermark unless truncated" tail.
class AuditEngine::Installment {
 public:
  Installment(AuditEngine& engine, WorkUnit& unit, sim::Duration budget)
      : progress(unit.progress),
        engine_(engine),
        budget_(budget),
        grain_(std::max<std::size_t>(1, engine.config_.parallel_grain)),
        task_cost_(engine.scratch_->task_cost) {
    task_cost_.clear();
    if (!progress.started) {
      // First installment: capture the epoch mark. Writes that land during
      // this or any later installment have generations above it and stay
      // dirty for the next scan.
      progress.started = true;
      progress.mark = engine.db_.write_generation();
    }
  }

  /// True when the budget is spent: records `item` as the resume point and
  /// marks the unit truncated; the caller stops its loop there. Budgets
  /// are positive, so every installment books at least one item.
  [[nodiscard]] bool stop_at(std::size_t item) {
    if (result.cost < budget_) {
      return false;
    }
    // Out of budget: only what was scanned is booked; resume here next cycle.
    progress.resume = item;
    progress.truncated = true;
    return true;
  }

  /// Books the `k`-th selected item of a parallel scan against detection
  /// task k / parallel_grain. Serial scans book every item as k = 0: the
  /// whole scan is one task, whose critical path is its total cost.
  void book(std::size_t k, sim::Duration cost) {
    const std::size_t task = k / grain_;
    if (task >= task_cost_.size()) {
      task_cost_.resize(task + 1, 0);
    }
    task_cost_[task] += cost;
    result.cost += cost;
  }

  /// Ends the installment: records its makespan and, unless it was
  /// truncated, adopts `mark` into `*watermark` (nullptr: the scan's
  /// recovery invalidated it, adopt nothing).
  CheckResult finish(std::uint64_t* watermark) {
    engine_.scan_makespan_ =
        greedy_makespan(task_cost_, engine_.config_.audit_threads,
                        engine_.scratch_->worker_load);
    if (watermark != nullptr && !progress.truncated) {
      // Epoch watermark: writes that landed during (any installment of)
      // this scan have generations above `mark` and stay dirty for the next
      // cycle; skip-holds have already pulled it below what went unverified.
      *watermark = progress.mark;
    }
    return result;
  }

  ScanProgress& progress;
  CheckResult result;

 private:
  AuditEngine& engine_;
  sim::Duration budget_;
  std::size_t grain_;
  std::vector<sim::Duration>& task_cost_;  // the engine's reused buffer
};

CheckResult AuditEngine::static_scan(WorkUnit& unit, sim::Duration budget) {
  if (!config_.static_check) {
    return {};
  }
  Installment run(*this, unit, budget);

  // Select: the chunk indexes this installment must verify. Computed up
  // front (not interleaved with recovery) so the parallel detection phase
  // sees exactly the set the merge phase will book.
  std::vector<std::size_t>& selected = scratch_->selected_chunks;
  selected.clear();
  for (std::size_t i = run.progress.resume; i < static_chunks_.size(); ++i) {
    const auto& chunk = static_chunks_[i];
    if (unit.scan == Scan::Exhaustive ||
        db_.span_written_since(chunk.offset, chunk.length, static_watermark_)) {
      selected.push_back(i);
    }
  }

  // Detect (read-only, parallelizable): golden-CRC compare per chunk.
  std::vector<char>& clean = scratch_->verdict_flags;
  clean.assign(selected.size(), 0);
  parallel_detect(selected.size(), [&](std::size_t k) {
    const auto& chunk = static_chunks_[selected[k]];
    const auto live = db_.region().subspan(chunk.offset, chunk.length);
    clean[k] = static_cast<char>(common::crc32(live) == chunk.golden_crc);
  });

  // Merge in chunk order: cost booking, findings, and reloads all happen
  // here on the calling thread, so output is identical at any thread count.
  for (std::size_t k = 0; k < selected.size(); ++k) {
    if (run.stop_at(selected[k])) {
      break;
    }
    run.book(k, config_.cost_per_static_chunk);
    if (clean[k]) {
      continue;
    }
    const auto& chunk = static_chunks_[selected[k]];
    Finding finding;
    finding.technique = Technique::StaticChecksum;
    finding.recovery = Recovery::ReloadSpan;
    finding.offset = chunk.offset;
    finding.length = chunk.length;
    if (const auto loc = db_.layout().locate(chunk.offset)) {
      finding.table = loc->table;
      finding.record = loc->record;
    }
    report(finding);
    ++run.result.findings;
    db_.reload_span_from_disk(chunk.offset, chunk.length);
  }
  return run.finish(&static_watermark_);
}

CheckResult AuditEngine::structure_scan(WorkUnit& unit, sim::Duration budget) {
  const db::TableId t = unit.table;
  if (t >= db_.table_count() || db_.lock_info(t)) {
    // Locked: a client transaction is in progress and the result would be
    // invalid. The watermark is NOT advanced, so nothing is lost for the
    // next cycle.
    return {};
  }
  Installment run(*this, unit, budget);
  // Header generations, not record generations: this check validates only
  // the 16-byte headers, and ordinary call-data field updates cannot
  // corrupt what it reads.
  const bool exhaustive = unit.scan == Scan::Exhaustive;
  if (!exhaustive && db_.table_header_generation(t) <= structure_watermark_[t]) {
    // No header write anywhere in the table since the last scan.
    return run.finish(&structure_watermark_[t]);
  }
  const auto& tl = db_.layout().table(t);

  // Expected `next` links, computed from the stored group values
  // ("offsets ... based on record sizes stored in system tables; all
  // record sizes are fixed and known", §4.3.2).
  db::group_links(db_.region(), tl, scratch_->links);

  // Select: records this installment must validate. All repairs happen
  // after detection (below), so an up-front selection sees the same dirty
  // set the legacy interleaved loop did.
  const auto resume = static_cast<db::RecordIndex>(run.progress.resume);
  std::vector<db::RecordIndex>& selected = scratch_->selected_records;
  selected.clear();
  for (db::RecordIndex r = resume; r < tl.num_records; ++r) {
    if (exhaustive || db_.header_generation(t, r) > structure_watermark_[t]) {
      selected.push_back(r);
    }
  }

  // Detect (read-only, parallelizable): corruption verdict per header,
  // against the pre-repair region state — exactly what the sequential
  // loop reads, since it too repairs only after the detection loop.
  std::vector<char>& corrupt = scratch_->verdict_flags;
  corrupt.assign(selected.size(), 0);
  const bool dynamic = db_.schema().tables[t].dynamic;
  parallel_detect(selected.size(), [&](std::size_t k) {
    const db::RecordIndex r = selected[k];
    corrupt[k] = static_cast<char>(
        db::header_faults(db::direct::read_header(db_, t, r), t, r, dynamic,
                          scratch_->links[r]) != 0);
  });

  // Merge in record order, replaying the sequential loop's consecutive-run
  // accounting (clean-skipped records reset the run). The run lives in the
  // unit's progress, so a truncated scan resumes it.
  std::uint32_t& consecutive = run.progress.consecutive;
  std::size_t k = 0;  // position in `selected`
  for (db::RecordIndex r = resume; r < tl.num_records; ++r) {
    if (k >= selected.size() || selected[k] != r) {
      // Verified clean by a previous scan and untouched since. Reading its
      // group above cost nothing extra — the booked cost models the
      // per-record validation, which is skipped here.
      consecutive = 0;
      continue;
    }
    if (run.stop_at(r)) {
      break;
    }
    run.book(k, config_.cost_per_record_structural);
    if (corrupt[k]) {
      if (++consecutive >= kConsecutiveHeaderThreshold) {
        // Strong indication of misalignment: reload the whole database
        // (§4.3.2). Dynamic state — all active calls — is lost. Verdicts
        // for the remaining records are discarded unbooked, exactly like
        // the sequential loop's early return.
        Finding finding;
        finding.technique = Technique::StructuralCheck;
        finding.recovery = Recovery::ReloadAll;
        finding.table = t;
        finding.offset = 0;
        finding.length = db_.region().size();
        report(finding);
        ++run.result.findings;
        db_.reload_all_from_disk();
        // Watermark deliberately not advanced: the reload rewrote the
        // whole region, and everything should be re-verified next cycle.
        return run.finish(nullptr);
      }
    } else {
      consecutive = 0;
    }
    ++k;
  }

  // Repair the corrupt records the merge booked: the first k selected.
  for (std::size_t merged = 0; merged < k; ++merged) {
    if (corrupt[merged]) {
      const db::RecordIndex r = selected[merged];
      report(header_finding(t, r));
      ++run.result.findings;
      db::direct::repair_header(db_, t, r);
    }
  }
  // Repairs above went through the store (note_write), so the repaired
  // records carry generations > mark and get re-verified next cycle — and
  // the same notification resynchronizes the shadow group index with the
  // repaired header words, keeping the API's O(1) splice path coherent
  // after structural recovery.
  return run.finish(&structure_watermark_[t]);
}

// The range scan computes verdicts against the pre-recovery region state,
// which is exactly what the sequential interleaved loop read too: recovery
// writes for record A touch only A's own field/status bytes (plus
// neighbors' header link words on a free-relink), none of which a later
// record's range detection reads.
AuditEngine::RangeVerdict AuditEngine::range_verdict(db::TableId t,
                                                     db::RecordIndex r) const {
  const auto& spec = db_.schema().tables[t];
  RangeVerdict v;
  const auto status = db::direct::read_header(db_, t, r).status;
  if (status == db::kStatusFree) {
    // Free records must hold exactly their catalog defaults (the API
    // scrubs them on free) — the strongest possible rule, so the audit
    // sweep removes latent errors in unused data ("the entire database
    // is checked for errors periodically", §5.1).
    v.kind = RangeVerdict::Kind::Free;
    for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
      ++v.checked;
      if (db::direct::read_field(db_, t, r, f) != spec.fields[f].default_value) {
        v.violations |= std::uint64_t{1} << f;
      }
    }
    return v;
  }
  if (status != db::kStatusActive) {
    return v;  // corrupted status: the structural audit owns this
  }
  v.kind = RangeVerdict::Kind::Active;
  for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
    const auto& field = spec.fields[f];
    if (!field.has_range()) {
      continue;
    }
    ++v.checked;
    const std::int32_t value = db::direct::read_field(db_, t, r, f);
    if (value < *field.range_min || value > *field.range_max) {
      v.violations |= std::uint64_t{1} << f;
      return v;  // record will be freed; no further fields are scanned
    }
  }
  return v;
}

std::uint32_t AuditEngine::recover_ranges(db::TableId t, db::RecordIndex r,
                                          const RangeVerdict& verdict) {
  const auto& spec = db_.schema().tables[t];
  std::uint32_t findings = 0;
  for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
    if ((verdict.violations & (std::uint64_t{1} << f)) == 0) {
      continue;
    }
    ++findings;
    // Recovery: reset to the catalog default; an active record is also
    // freed preemptively to stop error propagation (§4.3.1).
    db::direct::write_field(db_, t, r, f, spec.fields[f].default_value);
    if (verdict.kind == RangeVerdict::Kind::Active) {
      report(field_finding(Technique::RangeCheck, Recovery::FreeRecord, t, r, f));
      db::direct::free_record(db_, t, r);
      break;  // record is gone; stop scanning its fields
    }
    report(field_finding(Technique::RangeCheck, Recovery::ResetField, t, r, f));
  }
  return findings;
}

CheckResult AuditEngine::ranges_scan(WorkUnit& unit, sim::Duration budget) {
  const db::TableId t = unit.table;
  if (t >= db_.table_count()) {
    return {};
  }
  const auto& spec = db_.schema().tables[t];
  if (!spec.dynamic || db_.lock_info(t)) {
    return {};
  }
  Installment run(*this, unit, budget);
  // Field generations, not record generations: a group relink rewrites
  // only header link words and cannot change any field value this check
  // reads, so it must not force a content rescan.
  const bool exhaustive = unit.scan == Scan::Exhaustive;
  if (!exhaustive && db_.table_field_generation(t) <= ranges_watermark_[t]) {
    return run.finish(&ranges_watermark_[t]);
  }

  // Select: records this installment must examine (dirty and not
  // scrub-attested). The skip reasons here book nothing, same as the
  // sequential loop's `continue`s.
  std::vector<db::RecordIndex>& selected = scratch_->selected_records;
  selected.clear();
  for (auto r = static_cast<db::RecordIndex>(run.progress.resume);
       r < spec.num_records; ++r) {
    const std::uint64_t field_gen = db_.field_generation(t, r);
    if (!exhaustive && field_gen <= ranges_watermark_[t]) {
      continue;
    }
    if (!exhaustive && field_gen == db_.scrub_generation(t, r)) {
      // The last field-area write was an attested free-record scrub: the
      // fields equal the schema's defaults (a scrub from catalog defaults
      // that differ from the schema is not attested), so the freed-record
      // rule holds without reading a byte. Any later field write —
      // legitimate or injected through the store — breaks the equality.
      continue;
    }
    selected.push_back(r);
  }

  // Detect (read-only, parallelizable).
  std::vector<RangeVerdict>& verdict = scratch_->range_verdicts;
  verdict.assign(selected.size(), RangeVerdict{});
  parallel_detect(selected.size(), [&](std::size_t k) {
    if (recently_written(t, selected[k])) {
      verdict[k].kind = RangeVerdict::Kind::Grace;
      return;
    }
    verdict[k] = range_verdict(t, selected[k]);
  });

  // Merge in record order: cost booking, findings, resets, and frees.
  for (std::size_t k = 0; k < selected.size(); ++k) {
    if (run.stop_at(selected[k])) {
      break;
    }
    const db::RecordIndex r = selected[k];
    const RangeVerdict& v = verdict[k];
    if (v.kind == RangeVerdict::Kind::Skip) {
      continue;
    }
    if (v.kind == RangeVerdict::Kind::Grace) {
      // Possibly mid-transaction: skipped unverified, so the watermark is
      // held back below its generation and it stays dirty for next cycle.
      hold_watermark(db_.field_generation(t, r), run.progress.mark);
      continue;
    }
    run.book(k, static_cast<sim::Duration>(v.checked) * config_.cost_per_field_range);
    run.result.findings += recover_ranges(t, r, v);
  }
  return run.finish(&ranges_watermark_[t]);
}

bool AuditEngine::loop_intact(
    db::TableId t, db::RecordIndex r,
    std::vector<std::pair<db::TableId, db::RecordIndex>>& chain) const {
  constexpr int kMaxHops = 8;
  chain.clear();
  chain.reserve(kMaxHops + 1);
  chain.emplace_back(t, r);
  db::TableId cur_t = t;
  db::RecordIndex cur_r = r;
  for (int hop = 0; hop < kMaxHops; ++hop) {
    const db::FieldId fk = fk_field_[cur_t];
    if (fk == kNoField) {
      return true;  // chain ends without a loop: nothing to verify
    }
    const std::int32_t key = db::direct::read_field(db_, cur_t, cur_r, fk);
    if (key <= 0) {
      return false;  // unset/invalid reference
    }
    const db::TableId next_t = db_.schema().tables[cur_t].fields[fk].ref_table;
    const auto next_r = static_cast<db::RecordIndex>(key - 1);
    if (next_t >= db_.table_count() ||
        next_r >= db_.schema().tables[next_t].num_records) {
      return false;
    }
    const auto header = db::direct::read_header(db_, next_t, next_r);
    if (header.status != db::kStatusActive) {
      return false;  // "lost" record: reference to a freed slot
    }
    // Primary key must match the reference (§4.3.3's correspondence).
    const db::FieldId pk = pk_field_[next_t];
    if (pk != kNoField && db::direct::read_field(db_, next_t, next_r, pk) != key) {
      return false;
    }
    if (next_t == t && next_r == r) {
      return true;  // loop closed back to the anchor: 1-detectable and intact
    }
    for (const auto& [seen_t, seen_r] : chain) {
      if (seen_t == next_t && seen_r == next_r) {
        return false;  // closed onto the wrong record
      }
    }
    chain.emplace_back(next_t, next_r);
    cur_t = next_t;
    cur_r = next_r;
  }
  return false;
}

void AuditEngine::free_and_terminate(db::TableId t, db::RecordIndex r,
                                     Technique technique) {
  const auto meta = db_.record_meta(t, r);
  const Finding finding = record_finding(technique, Recovery::FreeRecord, t, r);
  report(finding);
  db::direct::free_record(db_, t, r);
  if (control_ != nullptr && meta.last_writer != sim::kNoProcess) {
    Finding termination = finding;
    termination.recovery = Recovery::TerminateClientThread;
    report(termination);
    control_->terminate_client_thread(meta.last_writer, meta.last_writer_thread);
  }
}

// The semantic scan stays sequential even when audit_threads > 1: its
// recovery (freeing a zombie chain) rewrites records that later anchors'
// walks read, so detection and recovery interleave by design and cannot
// be split into a read-only phase without changing results. Its budget
// truncation uses a flattened (table, record) ordinal as the resume
// point: walk anchors occupy ordinals [0, total_records_), the orphan
// sweep's tables occupy [total_records_, total_records_ + table_count).
CheckResult AuditEngine::semantics_scan(WorkUnit& unit, sim::Duration budget) {
  if (!config_.semantic_check) {
    return {};
  }
  Installment run(*this, unit, budget);
  const bool exhaustive = unit.scan == Scan::Exhaustive;
  const std::size_t resume = run.progress.resume;
  std::uint64_t& mark = run.progress.mark;
  auto& chain = scratch_->chain;

  // Anchor selection. Exhaustive: every record of every anchor table
  // (dynamic + FK-bearing; activity is checked at walk time). Incremental:
  // only records written since the watermark, plus — via the per-anchor
  // dirty sets — the last-known anchor of every dirty chain member, so a
  // corrupted mid-chain link re-walks exactly the loop it belongs to.
  std::vector<std::vector<char>>& walk = scratch_->walk;
  walk.resize(db_.table_count());
  for (db::TableId t = 0; t < db_.table_count(); ++t) {
    walk[t].assign(db_.schema().tables[t].num_records, 0);
  }
  const auto set_walk = [&](db::TableId t, db::RecordIndex r, char selected) {
    if (t < walk.size() && anchor_table_[t] && r < walk[t].size()) {
      walk[t][r] = selected;
    }
  };
  for (db::TableId t = 0; t < db_.table_count(); ++t) {
    const auto& spec = db_.schema().tables[t];
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      // Field generations: loop intactness depends on FK/PK field values
      // and record activity, and every legitimate activity change (alloc,
      // free) writes the field area in the same operation — header-only
      // link relinks cannot break a loop.
      if (!exhaustive && db_.field_generation(t, r) <= semantic_watermark_) {
        continue;
      }
      set_walk(t, r, 1);
      if (!exhaustive) {
        const auto anchor = chain_anchor_[t][r];
        if (anchor.first != db::kNoTable) {
          set_walk(anchor.first, anchor.second, 1);
        }
      }
    }
  }

  // Anchored loop checks (§4.3.3).
  for (db::TableId t = 0; t < db_.table_count() && !run.progress.truncated; ++t) {
    if (!anchor_table_[t]) {
      continue;
    }
    const auto& spec = db_.schema().tables[t];
    if (db_.lock_info(t)) {
      // Locked: hold the watermark back for every selected anchor so the
      // skipped walks happen next cycle.
      for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
        if (walk[t][r] && record_ordinal_base_[t] + r >= resume) {
          hold_watermark(db_.field_generation(t, r), mark);
        }
      }
      continue;
    }
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      if (!walk[t][r] || record_ordinal_base_[t] + r < resume) {
        continue;  // below resume: walked by an earlier installment
      }
      if (run.stop_at(record_ordinal_base_[t] + r)) {
        break;
      }
      const auto header = db::direct::read_header(db_, t, r);
      if (header.status != db::kStatusActive) {
        continue;
      }
      if (recently_written(t, r)) {
        hold_watermark(db_.field_generation(t, r), mark);
        continue;
      }
      run.book(0, config_.cost_per_loop_semantic);
      const bool intact = loop_intact(t, r, chain);
      // Record which anchor each visited chain member belongs to, so a
      // future write to the member re-selects this anchor.
      for (const auto& [member_t, member_r] : chain) {
        chain_anchor_[member_t][member_r] = {t, r};
      }
      if (intact) {
        if (!exhaustive) {
          // The closed walk just verified every edge of this loop, so a
          // pending walk from any other member of the same chain would
          // re-verify the identical edge set — drop those selections.
          // Broken loops are deliberately NOT deduplicated: each member's
          // own walk can localize the damage differently.
          for (const auto& [member_t, member_r] : chain) {
            set_walk(member_t, member_r, 0);
          }
        }
        continue;
      }
      // A chain member may be mid-transaction: skip rather than misfire,
      // holding the watermark back so the loop is re-walked next cycle.
      const bool any_recent = std::any_of(
          chain.begin(), chain.end(), [this](const auto& link) {
            return recently_written(link.first, link.second);
          });
      if (any_recent) {
        for (const auto& [member_t, member_r] : chain) {
          hold_watermark(db_.field_generation(member_t, member_r), mark);
        }
        continue;
      }
      ++run.result.findings;
      // Recovery: free the zombie chain and terminate the owning thread —
      // keeps records available at the cost of dropping one call (§4.3.3).
      free_and_terminate(t, r, Technique::SemanticCheck);
      for (std::size_t i = 1; i < chain.size(); ++i) {
        const auto [member_t, member_r] = chain[i];
        report(record_finding(Technique::SemanticCheck, Recovery::FreeRecord,
                              member_t, member_r));
        db::direct::free_record(db_, member_t, member_r);
      }
    }
  }

  // Orphan ("resource leak") sweep: active records no longer referenced by
  // any semantic relationship are zombies holding limited resources.
  // Budget granularity is one table: its reference scan derives one
  // referenced-set, so it either runs whole or defers whole.
  for (db::TableId t = 0; t < db_.table_count() && !run.progress.truncated; ++t) {
    if (total_records_ + t < resume) {
      continue;  // swept by an earlier installment
    }
    if (run.stop_at(total_records_ + t)) {
      break;
    }
    const auto& spec = db_.schema().tables[t];
    if (!spec.dynamic || pk_field_[t] == kNoField || referencing_[t].empty() ||
        db_.lock_info(t)) {
      continue;
    }
    if (!exhaustive) {
      // A record's referencedness can only change when the table itself or
      // one of its referencing tables was written — the reverse-reference
      // index makes that a couple of generation compares.
      bool touched = db_.table_field_generation(t) > semantic_watermark_;
      for (const auto& [u, f] : referencing_[t]) {
        (void)f;
        touched = touched || db_.table_field_generation(u) > semantic_watermark_;
      }
      if (!touched) {
        continue;
      }
    }

    std::vector<char>& referenced = scratch_->referenced;
    referenced.assign(spec.num_records, 0);
    for (const auto& [u, f] : referencing_[t]) {
      const auto& uspec = db_.schema().tables[u];
      if (!uspec.dynamic) {
        continue;
      }
      for (db::RecordIndex r = 0; r < uspec.num_records; ++r) {
        if (db::direct::read_header(db_, u, r).status != db::kStatusActive) {
          continue;
        }
        const std::int32_t key = db::direct::read_field(db_, u, r, f);
        if (key > 0 &&
            static_cast<db::RecordIndex>(key - 1) < spec.num_records) {
          referenced[static_cast<std::size_t>(key - 1)] = 1;
        }
      }
    }
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      const auto header = db::direct::read_header(db_, t, r);
      if (header.status != db::kStatusActive || referenced[r]) {
        continue;
      }
      if (recently_written(t, r)) {
        hold_watermark(db_.field_generation(t, r), mark);
        continue;
      }
      run.book(0, config_.cost_per_loop_semantic);
      ++run.result.findings;
      free_and_terminate(t, r, Technique::SemanticCheck);
    }
  }
  return run.finish(&semantic_watermark_);
}

// Selective monitoring stays serial and atomic under the budget: its
// verdicts derive from a whole-table value histogram, so partial scans
// would change the invariant itself, not just defer work. An overloaded
// cycle defers the whole unit instead (run_cycle's queue check).
CheckResult AuditEngine::selective_scan(WorkUnit& unit) {
  const db::TableId t = unit.table;
  if (!config_.selective_monitoring || t >= db_.table_count()) {
    return {};
  }
  const auto& spec = db_.schema().tables[t];
  if (!spec.dynamic || db_.lock_info(t)) {
    return {};
  }
  Installment run(*this, unit, kUnlimited);
  // The derived invariant is a histogram over the WHOLE table, so there is
  // no per-record narrowing — but when nothing in the table changed, the
  // histograms (and the verdicts drawn from them) cannot have changed
  // either, and the table-level generation proves it.
  if (unit.scan == Scan::Incremental &&
      db_.table_field_generation(t) <= selective_watermark_[t]) {
    return run.finish(&selective_watermark_[t]);
  }
  for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
    const auto& field = spec.fields[f];
    // Only attributes with no enforceable catalog rule are worth deriving
    // invariants for (§4.4.2's motivation).
    if (field.kind != db::DataKind::Dynamic || field.has_range() ||
        field.role != db::FieldRole::Plain) {
      continue;
    }
    common::ValueHistogram histogram;
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      if (db::direct::read_header(db_, t, r).status != db::kStatusActive) {
        continue;
      }
      if (recently_written(t, r)) {
        hold_watermark(db_.field_generation(t, r), run.progress.mark);
        continue;
      }
      run.book(0, config_.cost_per_field_range);
      histogram.add(db::direct::read_field(db_, t, r, f));
    }
    if (histogram.total() < config_.selective_min_records ||
        histogram.mean_occurrences() < kSelectiveMinMeanOccurrences) {
      continue;  // not enough data / distribution too flat to trust
    }
    const auto suspects = histogram.suspects(kSelectiveFraction);
    if (suspects.empty()) {
      continue;
    }
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      if (db::direct::read_header(db_, t, r).status != db::kStatusActive ||
          recently_written(t, r)) {
        continue;
      }
      const std::int32_t value = db::direct::read_field(db_, t, r, f);
      if (std::find(suspects.begin(), suspects.end(), value) == suspects.end()) {
        continue;
      }
      ++run.result.findings;
      // "Further checked by other means": escalate to the semantic audit
      // before acting on a derived (unverified) invariant.
      if (loop_intact(t, r, scratch_->chain)) {
        // The record's relationships are intact, but the attribute value
        // is a statistical outlier — reset the field only.
        report(field_finding(Technique::SelectiveMonitor, Recovery::ResetField,
                             t, r, f));
        db::direct::write_field(db_, t, r, f, field.default_value);
      } else {
        free_and_terminate(t, r, Technique::SelectiveMonitor);
      }
    }
  }
  return run.finish(&selective_watermark_[t]);
}

CheckResult AuditEngine::check_record(db::TableId t, db::RecordIndex r) {
  CheckResult result;
  if (t >= db_.table_count() ||
      r >= db_.schema().tables[t].num_records) {
    return result;
  }
  // One targeted event check books exactly one event-check cost: header
  // inspection and the (few) field reads are one cache-resident visit to
  // the record, not a header pass plus a separate range pass.
  result.cost += config_.cost_event_check;

  // Header check against the current group layout.
  if (db::header_faults(db::direct::read_header(db_, t, r), t, r,
                        db_.schema().tables[t].dynamic,
                        db::group_next(db_.region(), db_.layout().table(t), r)) != 0) {
    report(header_finding(t, r));
    ++result.findings;
    db::direct::repair_header(db_, t, r);
    // Short-circuit: the repair decided the record's fate (it may have
    // been freed), and no per-field range work was performed — so no
    // per-field range cost is booked either.
    return tally(result);
  }

  // The range scan's rule for this record only, ignoring the write-grace
  // window: the triggering write is exactly what is under suspicion. Only
  // an active record is checked — a free one is the periodic sweep's.
  if (db_.schema().tables[t].dynamic) {
    const RangeVerdict v = range_verdict(t, r);
    if (v.kind == RangeVerdict::Kind::Active) {
      result.cost +=
          static_cast<sim::Duration>(v.checked) * config_.cost_per_field_range;
      result.findings += recover_ranges(t, r, v);
    }
  }
  return tally(result);
}

CheckResult AuditEngine::run_alone(WorkUnit::Kind kind, db::TableId t, Scan scan) {
  WorkUnit unit{kind, t, scan, {}};
  return run_unit(unit, kUnlimited);
}

CheckResult AuditEngine::run_unit(WorkUnit& unit, sim::Duration budget) {
  // Lends this thread's scratch to this one scan. A scan that started
  // another on its own thread would have the set rewritten under it.
  thread_local ScanScratch scratch;
  if (scratch.lent) {
    throw std::logic_error("AuditEngine: scan re-entered on one thread");
  }
  scratch.lent = true;
  scratch_ = &scratch;
  struct GiveBack {
    ScanScratch& set;
    ~GiveBack() { set.lent = false; }
  } give_back{scratch};
  scan_makespan_ = 0;
  switch (unit.kind) {
    case WorkUnit::Kind::Static:
      return tally(static_scan(unit, budget));
    case WorkUnit::Kind::Structure:
      return tally(structure_scan(unit, budget));
    case WorkUnit::Kind::Ranges:
      return tally(ranges_scan(unit, budget));
    case WorkUnit::Kind::Selective:
      return tally(selective_scan(unit));
    case WorkUnit::Kind::Semantics:
      return tally(semantics_scan(unit, budget));
  }
  return {};
}

CheckResult AuditEngine::run_cycle(const std::vector<db::TableId>& order,
                                   Scan scan, const char* span_name) {
  const auto start = static_cast<std::uint64_t>(clock_());
  // The cycle's work queue: units carried from earlier budget-exhausted
  // cycles first (FIFO — the starvation-freedom guarantee under sustained
  // overload), then this cycle's fresh units in `order`. A fresh unit
  // duplicating a carried (kind, table) is dropped: the carried one
  // already covers at least its dirty set. A sweep is the exception: its
  // fresh exhaustive unit upgrades a carried incremental one to
  // exhaustive, restarted from item 0. The carried unit visits only dirty
  // data, so running it instead would miss exactly the corruption that
  // bypassed the store, which the sweep exists to catch.
  std::vector<WorkUnit>& queue = queue_;
  queue.assign(carry_.begin(), carry_.end());
  carry_.clear();
  const auto enqueue_fresh = [&](WorkUnit::Kind kind, db::TableId t) {
    for (auto& unit : queue) {
      if (unit.kind == kind && unit.table == t) {
        if (scan == Scan::Exhaustive && unit.scan == Scan::Incremental) {
          unit.scan = Scan::Exhaustive;
          unit.progress = ScanProgress{};
        }
        return;
      }
    }
    // Frozen: a truncated sweep unit still finishes exhaustively next cycle.
    queue.push_back(WorkUnit{kind, t, scan, {}});
  };
  enqueue_fresh(WorkUnit::Kind::Static, db::kNoTable);
  for (const db::TableId t : order) {
    enqueue_fresh(WorkUnit::Kind::Structure, t);
    enqueue_fresh(WorkUnit::Kind::Ranges, t);
    if (config_.selective_monitoring) {
      enqueue_fresh(WorkUnit::Kind::Selective, t);
    }
  }
  enqueue_fresh(WorkUnit::Kind::Semantics, db::kNoTable);

  const sim::Duration budget =
      config_.cycle_budget > 0 ? config_.cycle_budget : kUnlimited;
  CheckResult result;
  sim::Duration makespan = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (result.cost >= budget) {
      // Out of budget: everything not yet started carries to the next
      // cycle, in order.
      ++budget_exhausted_cycles_;
      obs::count(obs::Counter::audit_budget_exhausted);
      carry_.insert(carry_.end(), queue.begin() + static_cast<std::ptrdiff_t>(i),
                    queue.end());
      break;
    }
    WorkUnit& unit = queue[i];
    result += run_unit(unit, budget - result.cost);
    makespan += scan_makespan_;
    if (unit.progress.truncated) {
      // Partially scanned: the unit re-queues with its resume point; only
      // the items it actually scanned were booked.
      unit.progress.truncated = false;
      carry_.push_back(unit);
    }
  }
  if (!carry_.empty()) {
    deferred_units_total_ += carry_.size();
    obs::count(obs::Counter::audit_cycles_deferred,
               static_cast<std::uint64_t>(carry_.size()));
  }
  last_makespan_ = makespan;
  total_makespan_ += makespan;
  obs::observe(obs::Histogram::audit_cycle_latency_us,
               static_cast<std::uint64_t>(makespan));
  obs::count(obs::Counter::audit_passes);
  obs::observe(obs::Histogram::audit_pass_cost_us,
               static_cast<std::uint64_t>(result.cost));
  obs::trace_span(span_name, "audit", start,
                  static_cast<std::uint64_t>(result.cost));
  return result;
}

CheckResult AuditEngine::full_pass(const std::vector<db::TableId>& order) {
  return run_cycle(order, Scan::Exhaustive, "audit.full_pass");
}

CheckResult AuditEngine::incremental_pass(const std::vector<db::TableId>& order) {
  ++cycle_index_;
  obs::count(obs::Counter::audit_incremental_cycles);
  const bool sweep = config_.full_sweep_interval != 0 &&
                     cycle_index_ % config_.full_sweep_interval == 0;
  if (sweep) {
    ++full_sweeps_;
    obs::count(obs::Counter::audit_full_sweeps);
  }
  // A sweep cycle enqueues its fresh units exhaustively — same checks and
  // costs as the baseline pass — which both catches corruption the dirty
  // tracking never saw (raw-memory writes bypassing the store) and
  // advances every watermark, clearing the accumulated dirty state.
  return run_cycle(order, sweep ? Scan::Exhaustive : Scan::Incremental,
                   "audit.incremental_pass");
}

}  // namespace wtc::audit
