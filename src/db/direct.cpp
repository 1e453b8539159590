#include "db/direct.hpp"

#include <vector>

namespace wtc::db::direct {

void relink_table(Database& db, TableId t) {
  const auto& tl = db.layout().table(t);
  auto region = db.region();
  // Store only the words that actually change. Blanket stores would mark
  // the whole table dirty (defeating incremental audit) and over-report
  // legitimate overwrites to the oracle; an unchanged link word was
  // neither rewritten nor cleansed.
  // Per-thread scratch: audit recoveries relink on every free and repair,
  // and a reused buffer keeps them from allocating once per call.
  thread_local std::vector<std::uint32_t> expected;
  group_links(region, tl, expected);
  for (RecordIndex r = 0; r < tl.num_records; ++r) {
    const std::size_t link_at = db.layout().record_offset(t, r) + 12;
    if (load_u32(region, link_at) == expected[r]) {
      continue;
    }
    store_u32(region, link_at, expected[r]);
    db.note_write(link_at, 4);
  }
}

void splice_links(Database& db, TableId t, RecordIndex r,
                  std::uint32_t old_group, std::uint32_t old_next) {
  const auto& layout = db.layout();
  const TableIndex& index = db.index(t);
  auto region = db.region();
  // Store a link word only if it actually changes, exactly like
  // relink_table: a no-op rewrite would spuriously dirty the word and
  // over-report legitimate overwrites to the oracle.
  const auto put_link = [&](RecordIndex record, std::uint32_t value) {
    const std::size_t link_at = layout.record_offset(t, record) + 12;
    if (load_u32(region, link_at) != value) {
      store_u32(region, link_at, value);
      db.note_write(link_at, 4);
    }
  };
  const std::uint32_t new_group = load_u32(region, layout.record_offset(t, r) + 8);
  // Leave the old chain: the predecessor inherits r's old successor.
  if (old_group < kMaxGroups && old_group != new_group) {
    if (const auto pred = index.pred(old_group, r)) {
      put_link(*pred, old_next);
    }
  }
  if (new_group < kMaxGroups) {
    // Join the new chain in record-index order (r is already a member of
    // the index set — the caller's header store resynced it).
    const auto succ = index.succ(new_group, r);
    put_link(r, succ ? *succ : kNilLink);
    if (const auto pred = index.pred(new_group, r)) {
      put_link(*pred, r);
    }
  } else {
    put_link(r, kNilLink);  // out-of-range group: relink leaves it unlinked
  }
}

void free_record(Database& db, TableId t, RecordIndex r) {
  const std::size_t at = db.layout().record_offset(t, r);
  auto region = db.region();
  RecordHeader header;
  header.id_tag = expected_id_tag(t, r);
  header.status = kStatusFree;
  header.group = 0;
  header.next = kNilLink;
  store_record_header(region, at, header);
  const auto& fields = db.schema().tables.at(t).fields;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    store_i32(region, at + kRecordHeaderSize + f * 4, fields[f].default_value);
  }
  // Whole-record write whose field portion is a scrub to catalog defaults —
  // attest it so the incremental range audit can skip the freed record.
  db.note_scrub(at, db.layout().table(t).record_size);
  relink_table(db, t);
}

void repair_header(Database& db, TableId t, RecordIndex r) {
  const std::size_t at = db.layout().record_offset(t, r);
  auto region = db.region();
  RecordHeader header = load_record_header(region, at);
  const std::uint32_t original_status = header.status;
  header.id_tag = expected_id_tag(t, r);
  if (header.status != kStatusFree && header.status != kStatusActive) {
    header.status = kStatusFree;  // unrecoverable status: drop the record
    header.group = 0;
  }
  if (header.group >= kMaxGroups) {
    header.group = 0;
  }
  // Enforce the status/group consistency rule the structural check tests:
  // a free dynamic record lives on the free list; an active record that
  // claims the free list has an unknowable true group — drop it (the
  // paper's free-the-record recovery) rather than guess.
  if (db.schema().tables.at(t).dynamic) {
    if (header.status == kStatusFree && header.group != 0) {
      header.group = 0;
    } else if (header.status == kStatusActive && header.group == 0) {
      header.status = kStatusFree;
    }
  }
  store_record_header(region, at, header);
  db.note_write(at, kRecordHeaderSize);
  if (header.status == kStatusFree && original_status != kStatusFree) {
    // The repair dropped the record. A freed record must hold its catalog
    // defaults (every other free path scrubs), so leaving the stale call
    // data in place would just hand the range audit a spurious finding on
    // an already-recovered record — and it is a status transition with no
    // accompanying field write, which the incremental content checks are
    // entitled to assume never happens.
    const auto& fields = db.schema().tables.at(t).fields;
    for (std::size_t f = 0; f < fields.size(); ++f) {
      store_i32(region, at + kRecordHeaderSize + f * 4, fields[f].default_value);
    }
    db.note_scrub(at + kRecordHeaderSize, fields.size() * 4);
  }
  relink_table(db, t);
}

void write_field(Database& db, TableId t, RecordIndex r, FieldId f,
                 std::int32_t value) {
  const std::size_t at = db.layout().field_offset(t, r, f);
  store_i32(db.region(), at, value);
  db.note_write(at, 4);
}

std::int32_t read_field(const Database& db, TableId t, RecordIndex r, FieldId f) {
  return load_i32(db.region(), db.layout().field_offset(t, r, f));
}

RecordHeader read_header(const Database& db, TableId t, RecordIndex r) {
  return load_record_header(db.region(), db.layout().record_offset(t, r));
}

}  // namespace wtc::db::direct
