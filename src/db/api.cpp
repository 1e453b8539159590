#include "db/api.hpp"

#include <algorithm>

#include "db/direct.hpp"
#include "obs/metrics.hpp"

namespace wtc::db {

std::string_view to_string(Status status) noexcept {
  switch (status) {
    case Status::Ok: return "Ok";
    case Status::NotConnected: return "NotConnected";
    case Status::CatalogCorrupt: return "CatalogCorrupt";
    case Status::NoSuchTable: return "NoSuchTable";
    case Status::NoSuchRecord: return "NoSuchRecord";
    case Status::NoSuchField: return "NoSuchField";
    case Status::RecordNotActive: return "RecordNotActive";
    case Status::NoFreeRecord: return "NoFreeRecord";
    case Status::Locked: return "Locked";
    case Status::BadGroup: return "BadGroup";
  }
  return "?";
}

DbApi::DbApi(Database& db, std::function<sim::Time()> clock)
    : db_(db), clock_(std::move(clock)) {}

Status DbApi::init(sim::ProcessId pid) {
  pid_ = pid;
  // Connection setup validates the in-region catalog (header + every
  // table descriptor) before the client is allowed in — the dominant cost
  // of DBinit in both forms, which is why the audit instrumentation adds
  // proportionally little here (Figure 4's +6.5%).
  const CatalogView catalog(db_.region());
  bool catalog_ok = catalog.header_ok();
  if (catalog_ok) {
    for (TableId t = 0; t < catalog.table_count(); ++t) {
      const auto desc = catalog.table(t);
      if (!desc) {
        catalog_ok = false;
        continue;
      }
      for (FieldId f = 0; f < desc->num_fields; ++f) {
        if (!catalog.field(t, f)) {
          catalog_ok = false;
        }
      }
    }
  }
  connected_ = true;
  notify(ApiOp::Init, kNoTable, 0, false);
  return catalog_ok ? Status::Ok : Status::CatalogCorrupt;
}

Status DbApi::close() {
  if (!connected_) {
    return Status::NotConnected;
  }
  if (sink_ != nullptr) {
    // The modified DBclose flushes the connection's access-statistics
    // summary to the audit process (prioritized-audit bookkeeping).
    ApiEvent event;
    event.op = ApiOp::Close;
    event.client = pid_;
    event.time = clock_();
    const auto n = std::min<std::size_t>(db_.table_count(), event.payload.size());
    for (std::size_t t = 0; t < n; ++t) {
      event.payload[t] = static_cast<std::int32_t>(
          db_.table_stats(static_cast<TableId>(t)).accesses());
    }
    event.payload_len = static_cast<std::uint8_t>(n);
    sink_->on_api_event(event);
  }
  db_.release_locks_of(pid_);
  connected_ = false;
  return Status::Ok;
}

Status DbApi::resolve(TableId t, RecordIndex r, TableDescriptor& desc,
                      std::size_t& record_offset) const {
  if (!connected_) {
    return Status::NotConnected;
  }
  // A catalog corruption that breaks decoding makes THIS operation fail —
  // the application is affected right now (§3.2: "errors in the system
  // catalog can cause all database operations to fail"), so the failed
  // consultation counts as consumption of the corrupted metadata.
  const auto catalog_failed = [&]() {
    if (auto* obs = db_.observer()) {
      obs->on_client_read(pid_, 0, db_.layout().catalog_size());
    }
  };
  const CatalogView catalog(db_.region());
  if (!catalog.header_ok()) {
    catalog_failed();
    return Status::CatalogCorrupt;
  }
  if (t >= catalog.table_count()) {
    return Status::NoSuchTable;
  }
  const auto table_desc = catalog.decode_table(t);
  if (!table_desc) {
    catalog_failed();
    return Status::CatalogCorrupt;
  }
  if (r >= table_desc->num_records) {
    return Status::NoSuchRecord;
  }
  desc = *table_desc;
  record_offset = static_cast<std::size_t>(desc.table_offset) +
                  static_cast<std::size_t>(r) * desc.record_size;
  return Status::Ok;
}

Status DbApi::check_lock(TableId t, bool& auto_locked) {
  auto_locked = false;
  const auto info = db_.lock_info(t);
  if (!info) {
    db_.try_lock(t, pid_, clock_());
    auto_locked = true;
    return Status::Ok;
  }
  return info->owner == pid_ ? Status::Ok : Status::Locked;
}

void DbApi::notify(ApiOp op, TableId t, RecordIndex r, bool is_update,
                   std::uint32_t group, Status status) {
  if (sink_ == nullptr) {
    return;
  }
  ApiEvent event;
  event.op = op;
  event.client = pid_;
  event.table = t;
  event.record = r;
  event.time = clock_();
  event.is_update = is_update;
  event.status = status;
  event.thread = thread_id_;
  event.group = group;
  sink_->on_api_event(event);
}

void DbApi::notify_update(ApiOp op, TableId t, RecordIndex r,
                          std::size_t record_at, std::uint32_t num_fields,
                          FieldId field, std::uint32_t group, Status status) {
  if (sink_ == nullptr) {
    return;
  }
  ApiEvent event;
  event.op = op;
  event.client = pid_;
  event.table = t;
  event.record = r;
  event.time = clock_();
  event.is_update = true;
  event.status = status;
  event.thread = thread_id_;
  event.group = group;
  event.field = field;
  const auto n =
      std::min<std::uint32_t>(num_fields,
                              static_cast<std::uint32_t>(event.payload.size()));
  for (std::uint32_t f = 0; f < n; ++f) {
    event.payload[f] = load_i32(db_.region(), record_at + kRecordHeaderSize + f * 4);
  }
  event.payload_len = static_cast<std::uint8_t>(n);
  sink_->on_api_event(event);
}

void DbApi::touch_meta(TableId t, RecordIndex r, bool is_write) {
  wtc::obs::count(is_write ? wtc::obs::Counter::db_writes
                           : wtc::obs::Counter::db_reads);
  if (sink_ == nullptr || t >= db_.table_count()) {
    return;  // metadata upkeep is part of the instrumented form only
  }
  auto& stats = db_.table_stats(t);
  if (is_write) {
    ++stats.writes;
  } else {
    ++stats.reads;
  }
  if (r < db_.schema().tables[t].num_records) {
    auto& meta = db_.record_meta(t, r);
    meta.last_access = clock_();
    ++meta.access_count;
    if (is_write) {
      meta.last_writer = pid_;
      meta.last_writer_thread = thread_id_;
    }
  }
}

Status DbApi::read_rec(TableId t, RecordIndex r, std::span<std::int32_t> out) {
  TableDescriptor desc;
  std::size_t at = 0;
  if (const Status s = resolve(t, r, desc, at); s != Status::Ok) {
    return s;
  }
  bool auto_locked = false;
  if (const Status s = check_lock(t, auto_locked); s != Status::Ok) {
    return s;
  }
  const auto header = load_record_header(db_.region(), at);
  if (auto* obs = db_.observer()) {
    // The op consults the record's status word — that is a client read of
    // (possibly corrupted) structural data.
    obs->on_client_read(pid_, at + 4, 4);
  }
  Status result = Status::Ok;
  if (header.status != kStatusActive) {
    result = Status::RecordNotActive;
  } else {
    const std::size_t n = std::min<std::size_t>(out.size(), desc.num_fields);
    for (std::size_t f = 0; f < n; ++f) {
      out[f] = load_i32(db_.region(), at + kRecordHeaderSize + f * 4);
    }
    if (auto* obs = db_.observer()) {
      obs->on_client_read(pid_, at + kRecordHeaderSize, n * 4);
    }
  }
  if (auto_locked) {
    db_.unlock(t, pid_);
  }
  // Read-class ops feed the access statistics only; IPC events are posted
  // for update-class ops (the event trigger) — reads would flood the queue
  // for no audit value, and this is why Figure 4's read overheads are the
  // small ones.
  touch_meta(t, r, false);
  return result;
}

Status DbApi::read_fld(TableId t, RecordIndex r, FieldId f, std::int32_t& out) {
  TableDescriptor desc;
  std::size_t at = 0;
  if (const Status s = resolve(t, r, desc, at); s != Status::Ok) {
    return s;
  }
  if (f >= desc.num_fields) {
    return Status::NoSuchField;
  }
  bool auto_locked = false;
  if (const Status s = check_lock(t, auto_locked); s != Status::Ok) {
    return s;
  }
  const auto header = load_record_header(db_.region(), at);
  if (auto* obs = db_.observer()) {
    // The op consults the record's status word — that is a client read of
    // (possibly corrupted) structural data.
    obs->on_client_read(pid_, at + 4, 4);
  }
  Status result = Status::Ok;
  if (header.status != kStatusActive) {
    result = Status::RecordNotActive;
  } else {
    const std::size_t field_at = at + kRecordHeaderSize + static_cast<std::size_t>(f) * 4;
    out = load_i32(db_.region(), field_at);
    if (auto* obs = db_.observer()) {
      obs->on_client_read(pid_, field_at, 4);
    }
  }
  if (auto_locked) {
    db_.unlock(t, pid_);
  }
  touch_meta(t, r, false);
  return result;
}

Status DbApi::write_rec(TableId t, RecordIndex r, std::span<const std::int32_t> values) {
  TableDescriptor desc;
  std::size_t at = 0;
  if (const Status s = resolve(t, r, desc, at); s != Status::Ok) {
    return s;
  }
  bool auto_locked = false;
  if (const Status s = check_lock(t, auto_locked); s != Status::Ok) {
    return s;
  }
  const auto header = load_record_header(db_.region(), at);
  if (auto* obs = db_.observer()) {
    // The op consults the record's status word — that is a client read of
    // (possibly corrupted) structural data.
    obs->on_client_read(pid_, at + 4, 4);
  }
  Status result = Status::Ok;
  if (header.status != kStatusActive) {
    result = Status::RecordNotActive;
  } else {
    const std::size_t n = std::min<std::size_t>(values.size(), desc.num_fields);
    for (std::size_t f = 0; f < n; ++f) {
      store_i32(db_.region(), at + kRecordHeaderSize + f * 4, values[f]);
    }
    db_.note_write(at + kRecordHeaderSize, n * 4);
  }
  if (auto_locked) {
    db_.unlock(t, pid_);
  }
  touch_meta(t, r, true);
  notify_update(ApiOp::WriteRec, t, r, at, desc.num_fields, 0, 0, result);
  return result;
}

Status DbApi::write_fld(TableId t, RecordIndex r, FieldId f, std::int32_t value) {
  TableDescriptor desc;
  std::size_t at = 0;
  if (const Status s = resolve(t, r, desc, at); s != Status::Ok) {
    return s;
  }
  if (f >= desc.num_fields) {
    return Status::NoSuchField;
  }
  bool auto_locked = false;
  if (const Status s = check_lock(t, auto_locked); s != Status::Ok) {
    return s;
  }
  const auto header = load_record_header(db_.region(), at);
  if (auto* obs = db_.observer()) {
    // The op consults the record's status word — that is a client read of
    // (possibly corrupted) structural data.
    obs->on_client_read(pid_, at + 4, 4);
  }
  Status result = Status::Ok;
  if (header.status != kStatusActive) {
    result = Status::RecordNotActive;
  } else {
    const std::size_t field_at = at + kRecordHeaderSize + static_cast<std::size_t>(f) * 4;
    store_i32(db_.region(), field_at, value);
    db_.note_write(field_at, 4);
  }
  if (auto_locked) {
    db_.unlock(t, pid_);
  }
  touch_meta(t, r, true);
  // A single-field update event carries just the written field.
  notify_update(ApiOp::WriteFld, t, r,
                at + static_cast<std::size_t>(f) * 4, 1, f, 0, result);
  return result;
}

namespace {

// Resets the record at `at` to its field defaults as the in-region
// catalog holds them — the shared tail of alloc (fresh records start from
// defaults) and free (scrubbing stale call data). `desc` is the table
// descriptor resolve() validated, and nothing written here or since lies
// in the catalog header or table descriptors, so the field-descriptor base
// is computed once. Each default is still read from the region right
// before its field is written, so catalog corruption reaches the client
// (§3.2); a descriptor past the region's end resets its field to 0.
// Returns whether what was written is exactly table `t`'s schema defaults
// (the catalog's field count and every default match the schema's).
bool reset_fields_to_defaults(Database& db, TableId t, const TableDescriptor& desc,
                              std::size_t at) {
  const auto region = db.region();
  const std::vector<TableSpec>& tables = db.schema().tables;
  const std::size_t descriptors =
      kCatalogHeaderSize + CatalogView(region).table_count() * kTableDescriptorSize +
      static_cast<std::size_t>(desc.first_field_index) * kFieldDescriptorSize;
  bool schema_defaults =
      t < tables.size() && desc.num_fields == tables[t].fields.size();
  for (std::size_t f = 0; f < desc.num_fields; ++f) {
    const std::size_t field_at = descriptors + f * kFieldDescriptorSize;
    const std::int32_t value = field_at + kFieldDescriptorSize <= region.size()
                                   ? load_i32(region, field_at + 16)  // default
                                   : 0;
    store_i32(region, at + kRecordHeaderSize + f * 4, value);
    schema_defaults = schema_defaults && value == tables[t].fields[f].default_value;
  }
  return schema_defaults;
}

}  // namespace

void DbApi::relink_groups(TableId t) {
  // Rebuild every group chain in record-index order. This keeps the
  // structural invariant "next == index of the next record in my group"
  // exactly checkable (and repairable) by the structural audit. Shared
  // with the audit's direct-access path so both maintain one invariant.
  if (t < db_.table_count()) {
    direct::relink_table(db_, t);
  }
}

void DbApi::splice_or_relink(TableId t, RecordIndex r, std::uint32_t old_group,
                             std::uint32_t old_next) {
  if (link_mode_ == LinkMode::FullRelink) {
    relink_groups(t);
    return;
  }
  if (db_.index_cross_check() && !db_.verify_index(t)) {
    // Paranoid mode: a store-bypassing write desynced the shadow index.
    // Heal it from the region before computing splice neighbours, so the
    // splice stays byte-equivalent to a relink of the current region.
    db_.rebuild_index(t);
  }
  direct::splice_links(db_, t, r, old_group, old_next);
  wtc::obs::count(wtc::obs::Counter::db_index_splices);
}

Status DbApi::move_rec(TableId t, RecordIndex r, std::uint32_t target_group) {
  TableDescriptor desc;
  std::size_t at = 0;
  if (const Status s = resolve(t, r, desc, at); s != Status::Ok) {
    return s;
  }
  if (target_group >= kMaxGroups) {
    return Status::BadGroup;
  }
  bool auto_locked = false;
  if (const Status s = check_lock(t, auto_locked); s != Status::Ok) {
    return s;
  }
  auto header = load_record_header(db_.region(), at);
  if (auto* obs = db_.observer()) {
    obs->on_client_read(pid_, at + 4, 4);
  }
  Status result = Status::Ok;
  if (header.status != kStatusActive) {
    result = Status::RecordNotActive;
  } else {
    const std::uint32_t old_group = header.group;
    header.group = target_group;
    store_record_header(db_.region(), at, header);
    db_.note_write(at + 8, 4);  // group word rewritten
    splice_or_relink(t, r, old_group, header.next);
  }
  if (auto_locked) {
    db_.unlock(t, pid_);
  }
  touch_meta(t, r, true);
  notify_update(ApiOp::Move, t, r, at, desc.num_fields, 0, target_group, result);
  return result;
}

Status DbApi::alloc_rec(TableId t, std::uint32_t group, RecordIndex& out) {
  TableDescriptor desc;
  std::size_t at0 = 0;
  if (const Status s = resolve(t, 0, desc, at0); s != Status::Ok) {
    return s;
  }
  if (group == 0 || group >= kMaxGroups) {
    return Status::BadGroup;  // group 0 is the free list
  }
  bool auto_locked = false;
  if (const Status s = check_lock(t, auto_locked); s != Status::Ok) {
    return s;
  }
  const auto record_at = [&](RecordIndex r) {
    return static_cast<std::size_t>(desc.table_offset) +
           static_cast<std::size_t>(r) * desc.record_size;
  };
  // Find the lowest-index free slot. Splice mode pops it from the shadow
  // free index and consults exactly one header; FullRelink mode is the
  // original linear scan, reading every header up to the first free one.
  // Both charge the observer for precisely the headers actually read.
  std::optional<RecordIndex> slot;
  RecordHeader header;
  if (link_mode_ == LinkMode::Splice) {
    auto candidate = db_.index(t).first_free();
    for (int attempt = 0; attempt < 2 && candidate; ++attempt) {
      const std::size_t at = record_at(*candidate);
      header = load_record_header(db_.region(), at);
      if (auto* obs = db_.observer()) {
        obs->on_client_read(pid_, at + 4, 4);
      }
      if (header.status == kStatusFree) {
        slot = candidate;
        wtc::obs::count(wtc::obs::Counter::db_index_hits);
        break;
      }
      // The index is advisory: raw (store-bypassing) corruption can leave
      // it stale — the popped record claims to be free but its region
      // status word disagrees. Rebuild from the region and retry once;
      // after the rebuild first_free() is free by construction. (An EMPTY
      // free set is trusted without a rebuild: a record raw-corrupted
      // *into* looking free is not something alloc should hand out, and
      // rebuilding on every table-full allocation would put an O(N) scan
      // back on the hot path.)
      db_.rebuild_index(t);
      candidate = db_.index(t).first_free();
    }
  } else {
    for (RecordIndex r = 0; r < desc.num_records; ++r) {
      const std::size_t at = record_at(r);
      header = load_record_header(db_.region(), at);
      if (auto* obs = db_.observer()) {
        obs->on_client_read(pid_, at + 4, 4);
      }
      if (header.status == kStatusFree) {
        slot = r;
        break;
      }
    }
  }
  Status result = Status::NoFreeRecord;
  out = 0;
  if (slot) {
    const std::size_t at = record_at(*slot);
    const std::uint32_t old_group = header.group;
    const std::uint32_t old_next = header.next;
    header.status = kStatusActive;
    header.group = group;
    store_record_header(db_.region(), at, header);
    reset_fields_to_defaults(db_, t, desc, at);
    db_.note_write(at + 4, 8);  // status + group
    db_.note_write(at + kRecordHeaderSize, desc.num_fields * 4);
    splice_or_relink(t, *slot, old_group, old_next);
    out = *slot;
    result = Status::Ok;
    touch_meta(t, *slot, true);
  }
  if (auto_locked) {
    db_.unlock(t, pid_);
  }
  notify(ApiOp::Alloc, t, out, true, group, result);
  return result;
}

Status DbApi::free_rec(TableId t, RecordIndex r) {
  TableDescriptor desc;
  std::size_t at = 0;
  if (const Status s = resolve(t, r, desc, at); s != Status::Ok) {
    return s;
  }
  bool auto_locked = false;
  if (const Status s = check_lock(t, auto_locked); s != Status::Ok) {
    return s;
  }
  auto header = load_record_header(db_.region(), at);
  if (auto* obs = db_.observer()) {
    obs->on_client_read(pid_, at + 4, 4);
  }
  Status result = Status::Ok;
  if (header.status != kStatusActive) {
    result = Status::RecordNotActive;
  } else {
    const std::uint32_t old_group = header.group;
    header.status = kStatusFree;
    header.group = 0;
    store_record_header(db_.region(), at, header);
    // Scrub the data portion back to catalog defaults so a freed record
    // carries no stale call data (and the audit can verify free records
    // exactly against their defaults).
    const bool schema_defaults = reset_fields_to_defaults(db_, t, desc, at);
    db_.note_write(at + 4, 8);  // status + group
    // A scrub to the schema's defaults is attested, so the incremental
    // range audit skips the freed record until its fields are written
    // again. Defaults from a corrupted catalog are a plain write: the audit
    // must read the record and find them wrong.
    if (schema_defaults) {
      db_.note_scrub(at + kRecordHeaderSize, desc.num_fields * 4);
    } else {
      db_.note_write(at + kRecordHeaderSize, desc.num_fields * 4);
    }
    splice_or_relink(t, r, old_group, header.next);
    touch_meta(t, r, true);
  }
  if (auto_locked) {
    db_.unlock(t, pid_);
  }
  notify(ApiOp::Free, t, r, true, 0, result);
  return result;
}

Status DbApi::txn_begin(TableId t) {
  if (!connected_) {
    return Status::NotConnected;
  }
  const CatalogView catalog(db_.region());
  if (!catalog.header_ok()) {
    return Status::CatalogCorrupt;
  }
  if (t >= catalog.table_count()) {
    return Status::NoSuchTable;
  }
  const Status result =
      db_.try_lock(t, pid_, clock_()) ? Status::Ok : Status::Locked;
  notify(ApiOp::TxnBegin, t, 0, false);
  return result;
}

Status DbApi::txn_end(TableId t) {
  if (!connected_) {
    return Status::NotConnected;
  }
  const Status result = db_.unlock(t, pid_) ? Status::Ok : Status::NoSuchTable;
  notify(ApiOp::TxnEnd, t, 0, false);
  return result;
}

sim::Duration api_cost(ApiOp op, bool instrumented) noexcept {
  // Base costs in microseconds, with instrumented multipliers shaped by
  // the paper's Figure 4 (DBinit +6.5% ... DBwrite_rec +45.2%).
  switch (op) {
    case ApiOp::Init: return instrumented ? 320 : 300;
    case ApiOp::Close: return instrumented ? 119 : 100;
    case ApiOp::ReadRec: return instrumented ? 88 : 80;
    case ApiOp::ReadFld: return instrumented ? 44 : 40;
    case ApiOp::WriteRec: return instrumented ? 174 : 120;
    case ApiOp::WriteFld: return instrumented ? 78 : 60;
    case ApiOp::Move: return instrumented ? 189 : 150;
    case ApiOp::Alloc: return instrumented ? 200 : 140;
    case ApiOp::Free: return instrumented ? 180 : 130;
    case ApiOp::TxnBegin: return instrumented ? 25 : 20;
    case ApiOp::TxnEnd: return instrumented ? 25 : 20;
  }
  return 50;
}

}  // namespace wtc::db
