#include "db/database.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"

namespace wtc::db {

Database::Database(Schema schema, const PopulateFn& populate)
    : schema_(std::move(schema)), layout_(Layout::compute(schema_)) {
  region_.resize(layout_.region_size());
  format_region(region_, schema_, layout_);
  if (populate) {
    populate(region_, schema_, layout_);
  }
  pristine_ = region_;

  locks_.resize(schema_.tables.size());
  table_stats_.resize(schema_.tables.size());
  record_meta_.reserve(schema_.tables.size());
  for (const auto& table : schema_.tables) {
    record_meta_.emplace_back(table.num_records);
  }

  // Dirty tracking starts all-clean (generation 0): the formatted +
  // populated region IS the pristine image, so there is nothing for an
  // incremental audit to look at until the first store write.
  chunk_gen_.assign(region_.size() / kDirtyChunkBytes + 1, 0);
  table_gen_.assign(schema_.tables.size(), 0);
  table_header_gen_.assign(schema_.tables.size(), 0);
  table_field_gen_.assign(schema_.tables.size(), 0);
  gens_.reserve(schema_.tables.size());
  for (const auto& table : schema_.tables) {
    gens_.emplace_back(table.num_records);
  }

  // The formatted (and populated) region is authoritative; mirror it.
  index_.resize(schema_.tables.size());
  rebuild_all_indexes();
}

void Database::rebuild_index(TableId t) {
  obs::count(obs::Counter::db_index_rebuilds);
  const auto& tl = layout_.tables().at(t);
  auto& index = index_[t];
  index.reset(tl.num_records);
  for (RecordIndex r = 0; r < tl.num_records; ++r) {
    const std::size_t at = tl.offset + static_cast<std::size_t>(r) * tl.record_size;
    index.sync(r, load_u32(region_, at + 4), load_u32(region_, at + 8));
  }
}

void Database::rebuild_all_indexes() {
  for (std::size_t t = 0; t < schema_.tables.size(); ++t) {
    rebuild_index(static_cast<TableId>(t));
  }
}

bool Database::verify_index(TableId t) const {
  const auto& tl = layout_.tables().at(t);
  TableIndex fresh;
  fresh.reset(tl.num_records);
  for (RecordIndex r = 0; r < tl.num_records; ++r) {
    const std::size_t at = tl.offset + static_cast<std::size_t>(r) * tl.record_size;
    fresh.sync(r, load_u32(region_, at + 4), load_u32(region_, at + 8));
  }
  return fresh == index_.at(t);
}

void Database::note_write(std::size_t offset, std::size_t len) noexcept {
  stamp(offset, len, false);
  if (observer_ != nullptr) {
    observer_->on_legitimate_write(offset, len);
  }
}

void Database::note_scrub(std::size_t offset, std::size_t len) noexcept {
  obs::count(obs::Counter::db_scrubs);
  stamp(offset, len, true);
  if (observer_ != nullptr) {
    observer_->on_legitimate_write(offset, len);
  }
}

void Database::stamp(std::size_t offset, std::size_t len, bool scrub) noexcept {
  const std::size_t end = std::min(offset + len, region_.size());
  if (offset >= end) {
    return;
  }
  const std::uint64_t gen = ++write_gen_;
  obs::gauge_max(obs::Gauge::db_write_generation, gen);
  for (std::size_t c = offset / kDirtyChunkBytes; c <= (end - 1) / kDirtyChunkBytes;
       ++c) {
    chunk_gen_[c] = gen;
    obs::count(obs::Counter::db_dirty_chunk_stamps);
  }
  // Tables lie back to back in id order: skip those ending before the
  // span, stop at the first starting at or past its end. Records are
  // fixed-size, so one division finds the first record the span overlaps.
  const auto& tables = layout_.tables();
  for (std::size_t t = 0; t < tables.size() && tables[t].offset < end; ++t) {
    const auto& tl = tables[t];
    const std::size_t table_end = tl.offset + tl.record_size * tl.num_records;
    const std::size_t lo = std::max(offset, tl.offset);
    const std::size_t hi = std::min(end, table_end);
    if (lo >= hi) {
      continue;
    }
    table_gen_[t] = gen;
    auto r = static_cast<RecordIndex>((lo - tl.offset) / tl.record_size);
    std::size_t rec_at = tl.offset + static_cast<std::size_t>(r) * tl.record_size;
    for (; rec_at < hi; rec_at += tl.record_size, ++r) {
      RecordGens& g = gens_[t][r];
      g.record = gen;
      // The span overlaps this record; it touched the field area iff it
      // reaches past the record header, and the header iff it starts
      // before the field area.
      const std::size_t field_start = rec_at + kRecordHeaderSize;
      if (offset < field_start) {
        g.header = gen;
        table_header_gen_[t] = gen;
        // The write may have changed the status (+4) or group (+8) word —
        // the inputs to this record's shadow-index membership. Re-read
        // both and resync; the region already holds the new bytes (store
        // paths write first, then stamp).
        if (offset < rec_at + 12 && end > rec_at + 4) {
          index_[t].sync(r, load_u32(region_, rec_at + 4),
                         load_u32(region_, rec_at + 8));
          obs::count(obs::Counter::db_index_resyncs);
        }
      }
      if (end > field_start && tl.num_fields > 0) {
        g.field = gen;
        table_field_gen_[t] = gen;
        if (scrub && offset <= field_start &&
            end >= field_start + tl.num_fields * 4) {
          g.scrub = gen;
        }
      }
    }
  }
}

bool Database::span_written_since(std::size_t offset, std::size_t len,
                                  std::uint64_t gen) const noexcept {
  if (write_gen_ <= gen || len == 0) {
    return false;
  }
  const std::size_t end = std::min(offset + len, region_.size());
  if (offset >= end) {
    return false;
  }
  for (std::size_t c = offset / kDirtyChunkBytes; c <= (end - 1) / kDirtyChunkBytes;
       ++c) {
    if (chunk_gen_[c] > gen) {
      return true;
    }
  }
  return false;
}

std::uint64_t Database::region_dirty_chunks_since(
    std::size_t offset, std::size_t len, std::uint64_t gen) const noexcept {
  if (write_gen_ <= gen || len == 0) {
    return 0;
  }
  const std::size_t end = std::min(offset + len, region_.size());
  if (offset >= end) {
    return 0;
  }
  std::uint64_t dirty = 0;
  for (std::size_t c = offset / kDirtyChunkBytes; c <= (end - 1) / kDirtyChunkBytes;
       ++c) {
    if (chunk_gen_[c] > gen) {
      ++dirty;
    }
  }
  return dirty;
}

void Database::reload_all_from_disk() noexcept {
  obs::count(obs::Counter::db_reloads);
  std::memcpy(region_.data(), pristine_.data(), region_.size());
  note_write(0, region_.size());
}

void Database::reload_span_from_disk(std::size_t offset, std::size_t len) noexcept {
  const std::size_t end = std::min(offset + len, region_.size());
  if (offset >= end) {
    return;
  }
  obs::count(obs::Counter::db_reloads);
  std::memcpy(region_.data() + offset, pristine_.data() + offset, end - offset);
  note_write(offset, end - offset);
}

void Database::reload_catalog_from_disk() noexcept {
  reload_span_from_disk(0, layout_.catalog_size());
}

bool Database::install_image(std::span<const std::byte> bytes) {
  if (bytes.size() != region_.size()) {
    return false;
  }
  if (!CatalogView(bytes).header_ok()) {
    return false;
  }
  std::memcpy(region_.data(), bytes.data(), bytes.size());
  pristine_.assign(bytes.begin(), bytes.end());
  note_write(0, region_.size());
  return true;
}

std::vector<std::pair<std::size_t, std::size_t>> Database::static_spans() const {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  spans.emplace_back(0, layout_.catalog_size());
  for (std::size_t t = 0; t < schema_.tables.size(); ++t) {
    if (!schema_.tables[t].dynamic) {
      const auto& tl = layout_.tables()[t];
      spans.emplace_back(tl.offset, tl.record_size * tl.num_records);
    }
  }
  return spans;
}

bool Database::try_lock(TableId t, sim::ProcessId pid, sim::Time now) noexcept {
  if (t >= locks_.size()) {
    return false;
  }
  auto& slot = locks_[t];
  if (!slot) {
    slot = LockInfo{pid, now};
    obs::count(obs::Counter::db_lock_acquires);
    return true;
  }
  if (slot->owner != pid) {
    obs::count(obs::Counter::db_lock_conflicts);
    return false;
  }
  return true;
}

bool Database::unlock(TableId t, sim::ProcessId pid) noexcept {
  if (t >= locks_.size() || !locks_[t] || locks_[t]->owner != pid) {
    return false;
  }
  locks_[t].reset();
  return true;
}

void Database::release_locks_of(sim::ProcessId pid) noexcept {
  for (auto& slot : locks_) {
    if (slot && slot->owner == pid) {
      slot.reset();
    }
  }
}

std::optional<LockInfo> Database::lock_info(TableId t) const noexcept {
  return t < locks_.size() ? locks_[t] : std::nullopt;
}

std::vector<std::pair<TableId, LockInfo>> Database::held_locks() const {
  std::vector<std::pair<TableId, LockInfo>> held;
  for (std::size_t t = 0; t < locks_.size(); ++t) {
    if (locks_[t]) {
      held.emplace_back(static_cast<TableId>(t), *locks_[t]);
    }
  }
  return held;
}

RecordMeta& Database::record_meta(TableId t, RecordIndex r) {
  return record_meta_.at(t).at(r);
}

const RecordMeta& Database::record_meta(TableId t, RecordIndex r) const {
  return record_meta_.at(t).at(r);
}

}  // namespace wtc::db
