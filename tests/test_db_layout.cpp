#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "db/controller_schema.hpp"
#include "db/database.hpp"
#include "db/layout.hpp"

namespace wtc::db {
namespace {

Schema small_schema() {
  SchemaBuilder b;
  b.table("Static", 4, /*dynamic=*/false)
      .static_field("cfg_a", 7)
      .static_field("cfg_b", 9);
  b.table("Dyn", 8, /*dynamic=*/true)
      .primary_key("key")
      .ranged("val", 0, 100, 50)
      .unruled("free_form");
  return std::move(b).build();
}

TEST(Layout, ComputesContiguousNonOverlappingTables) {
  const Schema schema = small_schema();
  const Layout layout = Layout::compute(schema);
  ASSERT_EQ(layout.tables().size(), 2u);
  const auto& t0 = layout.tables()[0];
  const auto& t1 = layout.tables()[1];
  EXPECT_EQ(t0.offset, layout.data_start());
  EXPECT_EQ(t0.record_size, kRecordHeaderSize + 2 * 4);
  EXPECT_EQ(t1.offset, t0.offset + t0.record_size * 4);
  EXPECT_EQ(t1.record_size, kRecordHeaderSize + 3 * 4);
  EXPECT_EQ(layout.region_size(), t1.offset + t1.record_size * 8);
}

TEST(Layout, FieldOffsets) {
  const Schema schema = small_schema();
  const Layout layout = Layout::compute(schema);
  EXPECT_EQ(layout.field_offset(1, 0, 0),
            layout.record_offset(1, 0) + kRecordHeaderSize);
  EXPECT_EQ(layout.field_offset(1, 2, 1),
            layout.record_offset(1, 2) + kRecordHeaderSize + 4);
}

TEST(Layout, LocateMapsOffsetsBack) {
  const Schema schema = small_schema();
  const Layout layout = Layout::compute(schema);
  EXPECT_FALSE(layout.locate(0).has_value());  // catalog
  EXPECT_FALSE(layout.locate(layout.data_start() - 1).has_value());

  const auto loc = layout.locate(layout.record_offset(1, 3) + 2);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->table, 1);
  EXPECT_EQ(loc->record, 3u);
  EXPECT_TRUE(loc->in_header);

  const auto field_loc = layout.locate(layout.field_offset(1, 3, 1));
  ASSERT_TRUE(field_loc.has_value());
  EXPECT_FALSE(field_loc->in_header);
}

TEST(Layout, ExpectedIdTagUniquePerRecord) {
  EXPECT_NE(expected_id_tag(0, 0), expected_id_tag(0, 1));
  EXPECT_NE(expected_id_tag(0, 0), expected_id_tag(1, 0));
  // Single bit flips always change the tag (it is compared exactly).
  const std::uint32_t tag = expected_id_tag(2, 5);
  for (int bit = 0; bit < 32; ++bit) {
    EXPECT_NE(tag ^ (1u << bit), tag);
  }
}

TEST(FormatRegion, CatalogRoundTrips) {
  const Schema schema = small_schema();
  const Layout layout = Layout::compute(schema);
  std::vector<std::byte> region(layout.region_size());
  format_region(region, schema, layout);

  const CatalogView catalog(region);
  ASSERT_TRUE(catalog.header_ok());
  EXPECT_EQ(catalog.table_count(), 2u);

  const auto t0 = catalog.table(0);
  ASSERT_TRUE(t0.has_value());
  EXPECT_FALSE(t0->dynamic());
  EXPECT_EQ(t0->num_records, 4u);
  EXPECT_EQ(t0->table_offset, layout.data_start());

  const auto t1 = catalog.table(1);
  ASSERT_TRUE(t1.has_value());
  EXPECT_TRUE(t1->dynamic());

  const auto key_field = catalog.field(1, 0);
  ASSERT_TRUE(key_field.has_value());
  EXPECT_EQ(key_field->role(), FieldRole::PrimaryKey);
  EXPECT_FALSE(key_field->has_range());

  const auto val_field = catalog.field(1, 1);
  ASSERT_TRUE(val_field.has_value());
  EXPECT_TRUE(val_field->has_range());
  EXPECT_EQ(val_field->range_min, 0);
  EXPECT_EQ(val_field->range_max, 100);
  EXPECT_EQ(val_field->default_value, 50);
}

TEST(FormatRegion, RecordsFormattedWithHeadersAndDefaults) {
  const Schema schema = small_schema();
  const Layout layout = Layout::compute(schema);
  std::vector<std::byte> region(layout.region_size());
  format_region(region, schema, layout);

  // Static table records are Active; dynamic ones are Free, chained in
  // index order on the free list (group 0).
  const auto s0 = load_record_header(region, layout.record_offset(0, 0));
  EXPECT_EQ(s0.status, kStatusActive);
  EXPECT_EQ(s0.id_tag, expected_id_tag(0, 0));

  const auto d0 = load_record_header(region, layout.record_offset(1, 0));
  EXPECT_EQ(d0.status, kStatusFree);
  EXPECT_EQ(d0.group, 0u);
  EXPECT_EQ(d0.next, 1u);
  const auto d7 = load_record_header(region, layout.record_offset(1, 7));
  EXPECT_EQ(d7.next, kNilLink);

  // Defaults written into fields.
  EXPECT_EQ(load_i32(region, layout.field_offset(0, 2, 0)), 7);
  EXPECT_EQ(load_i32(region, layout.field_offset(1, 3, 1)), 50);
}

TEST(CatalogView, RejectsCorruptHeader) {
  const Schema schema = small_schema();
  const Layout layout = Layout::compute(schema);
  std::vector<std::byte> region(layout.region_size());
  format_region(region, schema, layout);

  region[0] ^= std::byte{0x01};  // magic
  EXPECT_FALSE(CatalogView(region).header_ok());
  region[0] ^= std::byte{0x01};
  EXPECT_TRUE(CatalogView(region).header_ok());

  region[8] ^= std::byte{0x40};  // table count
  EXPECT_FALSE(CatalogView(region).header_ok());
}

TEST(CatalogView, RejectsDescriptorPointingOutsideRegion) {
  const Schema schema = small_schema();
  const Layout layout = Layout::compute(schema);
  std::vector<std::byte> region(layout.region_size());
  format_region(region, schema, layout);

  // Corrupt table 1's offset to a huge value.
  const std::size_t at = kCatalogHeaderSize + 1 * kTableDescriptorSize + 12;
  store_u32(region, at, 0x7FFFFFFFu);
  const CatalogView catalog(region);
  EXPECT_TRUE(catalog.header_ok());
  EXPECT_FALSE(catalog.table(1).has_value());
  EXPECT_TRUE(catalog.table(0).has_value());
}

TEST(Layout, LocateExactBoundaries) {
  const Schema schema = small_schema();
  const Layout layout = Layout::compute(schema);
  // First byte of the first table is table 0, record 0.
  auto loc = layout.locate(layout.data_start());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->table, 0);
  EXPECT_EQ(loc->record, 0u);
  // First byte of table 1 belongs to table 1, not table 0.
  loc = layout.locate(layout.table(1).offset);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->table, 1);
  // One past the end of the region maps nowhere.
  EXPECT_FALSE(layout.locate(layout.region_size()).has_value());
  // Last byte of the region belongs to the last record of the last table.
  loc = layout.locate(layout.region_size() - 1);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->table, 1);
  EXPECT_EQ(loc->record, 7u);
  EXPECT_FALSE(loc->in_header);
}

TEST(CatalogView, FieldIndexBounds) {
  const Schema schema = small_schema();
  const Layout layout = Layout::compute(schema);
  std::vector<std::byte> region(layout.region_size());
  format_region(region, schema, layout);
  const CatalogView catalog(region);
  EXPECT_TRUE(catalog.field(1, 0).has_value());
  EXPECT_TRUE(catalog.field(1, 2).has_value());
  EXPECT_FALSE(catalog.field(1, 3).has_value());   // one past num_fields
  EXPECT_FALSE(catalog.field(9, 0).has_value());   // no such table
}

TEST(Database, PristineSnapshotAndReload) {
  Database db(small_schema());
  const std::size_t offset = db.layout().field_offset(0, 0, 0);
  EXPECT_EQ(load_i32(db.region(), offset), 7);

  store_i32(db.region(), offset, 999);
  EXPECT_EQ(load_i32(db.region(), offset), 999);
  EXPECT_EQ(load_i32(db.pristine(), offset), 7);

  db.reload_span_from_disk(offset, 4);
  EXPECT_EQ(load_i32(db.region(), offset), 7);
}

TEST(Database, ReloadAllRestoresEverything) {
  Database db(small_schema());
  for (std::size_t i = 0; i < db.region().size(); i += 11) {
    db.region()[i] ^= std::byte{0xFF};
  }
  db.reload_all_from_disk();
  EXPECT_TRUE(std::equal(db.region().begin(), db.region().end(),
                         db.pristine().begin()));
}

TEST(Database, StaticSpansCoverCatalogAndStaticTables) {
  Database db(small_schema());
  const auto spans = db.static_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].first, 0u);
  EXPECT_EQ(spans[0].second, db.layout().catalog_size());
  EXPECT_EQ(spans[1].first, db.layout().table(0).offset);
}

TEST(Database, LockLifecycle) {
  Database db(small_schema());
  EXPECT_TRUE(db.try_lock(1, 10, 100));
  EXPECT_TRUE(db.try_lock(1, 10, 120));   // re-entrant for owner
  EXPECT_FALSE(db.try_lock(1, 11, 130));  // other process blocked
  ASSERT_TRUE(db.lock_info(1).has_value());
  EXPECT_EQ(db.lock_info(1)->owner, 10u);
  EXPECT_EQ(db.lock_info(1)->since, 100u);

  EXPECT_FALSE(db.unlock(1, 11));
  EXPECT_TRUE(db.unlock(1, 10));
  EXPECT_FALSE(db.lock_info(1).has_value());

  db.try_lock(0, 5, 1);
  db.try_lock(1, 5, 2);
  EXPECT_EQ(db.held_locks().size(), 2u);
  db.release_locks_of(5);
  EXPECT_TRUE(db.held_locks().empty());
}

TEST(ControllerSchema, ResolvesAndPopulates) {
  auto db = make_controller_database();
  const auto ids = resolve_controller_ids(db->schema());
  EXPECT_EQ(db->schema().tables[ids.process].name, "Process");
  EXPECT_TRUE(db->schema().tables[ids.process].dynamic);
  EXPECT_FALSE(db->schema().tables[ids.subscriber].dynamic);

  // Static subscriber data populated with distinct keys before snapshot.
  const std::int32_t key0 =
      load_i32(db->region(), db->layout().field_offset(ids.subscriber, 0, 1));
  const std::int32_t key1 =
      load_i32(db->region(), db->layout().field_offset(ids.subscriber, 1, 1));
  EXPECT_EQ(key0, subscriber_auth_key(0));
  EXPECT_EQ(key1, subscriber_auth_key(1));
  EXPECT_NE(key0, key1);
  // And the pristine image matches (checksummable).
  EXPECT_EQ(load_i32(db->pristine(), db->layout().field_offset(ids.subscriber, 0, 1)),
            key0);
}

TEST(ControllerSchema, SemanticLoopClosesViaForeignKeys) {
  auto db = make_controller_database();
  const auto& schema = db->schema();
  const auto ids = resolve_controller_ids(schema);
  EXPECT_EQ(schema.tables[ids.process].fields[ids.p_connection_id].ref_table,
            ids.connection);
  EXPECT_EQ(schema.tables[ids.connection].fields[ids.c_channel_id].ref_table,
            ids.resource);
  EXPECT_EQ(schema.tables[ids.resource].fields[ids.r_process_id].ref_table,
            ids.process);
}

TEST(BenchSchema, RespectsTable5Ratios) {
  const Schema schema = make_bench_schema({.scale = 4});
  ASSERT_EQ(schema.tables.size(), 6u);
  EXPECT_EQ(schema.tables[0].num_records, 28u);
  EXPECT_EQ(schema.tables[1].num_records, 72u);
  EXPECT_EQ(schema.tables[2].num_records, 4u);
  EXPECT_EQ(schema.tables[3].num_records, 500u);
  EXPECT_EQ(schema.tables[4].num_records, 32u);
  EXPECT_EQ(schema.tables[5].num_records, 16u);
}

TEST(BenchSchema, ActivateAllRecords) {
  Database db(make_bench_schema());
  activate_all_records(db);
  for (TableId t = 0; t < db.table_count(); ++t) {
    const auto& tl = db.layout().table(t);
    for (RecordIndex r = 0; r < tl.num_records; ++r) {
      EXPECT_EQ(load_record_header(db.region(), db.layout().record_offset(t, r)).status,
                kStatusActive);
    }
  }
}

// --- group_next: one record's group_links entry ---

/// A bare table of `records` headers (only the group words matter) behind
/// a few bytes of unrelated region, so offsets are exercised too.
struct GroupTable {
  explicit GroupTable(RecordIndex records) {
    layout.offset = 12;
    layout.record_size = kRecordHeaderSize + 8;
    layout.num_records = records;
    region.resize(layout.offset + layout.record_size * records);
  }
  void set_group(RecordIndex r, std::uint32_t group) {
    store_u32(region, layout.offset + r * layout.record_size + 8, group);
  }
  /// Records whose group_next differs from their group_links entry.
  [[nodiscard]] std::vector<RecordIndex> mismatches() const {
    std::vector<std::uint32_t> links;
    group_links(region, layout, links);
    std::vector<RecordIndex> bad;
    for (RecordIndex r = 0; r < layout.num_records; ++r) {
      if (group_next(region, layout, r) != links[r]) {
        bad.push_back(r);
      }
    }
    return bad;
  }

  TableLayout layout;
  std::vector<std::byte> region;
};

TEST(GroupNext, EqualsGroupLinksOnFuzzedGroupWords) {
  common::Rng rng(0x6E7);
  for (int round = 0; round < 400; ++round) {
    const auto records = static_cast<RecordIndex>(1 + rng.uniform(48));
    // Few distinct groups so chains are long, some out of range (kMaxGroups
    // and above, up to kNilLink) so those records are unlinked.
    const auto groups = static_cast<std::uint32_t>(1 + rng.uniform(kMaxGroups));
    GroupTable table(records);
    for (RecordIndex r = 0; r < records; ++r) {
      const std::uint64_t pick = rng.uniform(16);
      std::uint32_t group = static_cast<std::uint32_t>(rng.uniform(groups));
      if (pick == 0) {
        group = kMaxGroups + static_cast<std::uint32_t>(rng.uniform(4));
      } else if (pick == 1) {
        group = kNilLink;
      }
      table.set_group(r, group);
    }
    EXPECT_TRUE(table.mismatches().empty()) << "round " << round;
  }
}

TEST(GroupNext, EdgeShapes) {
  // A 2-member group spanning the whole table: first -> last, last -> nil,
  // every other record in another group, and most groups empty.
  GroupTable span(10);
  for (RecordIndex r = 0; r < 10; ++r) {
    span.set_group(r, 3);
  }
  span.set_group(0, 7);
  span.set_group(9, 7);
  EXPECT_EQ(group_next(span.region, span.layout, 0), 9u);
  EXPECT_EQ(group_next(span.region, span.layout, 9), kNilLink);
  EXPECT_EQ(group_next(span.region, span.layout, 1), 2u);
  EXPECT_EQ(group_next(span.region, span.layout, 8), kNilLink);
  EXPECT_TRUE(span.mismatches().empty());

  // Out-of-range groups are unlinked and do not break the chain they sit
  // in the middle of.
  GroupTable gaps(5);
  gaps.set_group(0, 1);
  gaps.set_group(1, kMaxGroups);
  gaps.set_group(2, kNilLink);
  gaps.set_group(3, 1);
  gaps.set_group(4, kMaxGroups);
  EXPECT_EQ(group_next(gaps.region, gaps.layout, 0), 3u);
  EXPECT_EQ(group_next(gaps.region, gaps.layout, 1), kNilLink);
  EXPECT_EQ(group_next(gaps.region, gaps.layout, 2), kNilLink);
  EXPECT_EQ(group_next(gaps.region, gaps.layout, 4), kNilLink);
  EXPECT_TRUE(gaps.mismatches().empty());

  // One record, and every record in the last group.
  GroupTable single(1);
  single.set_group(0, kMaxGroups - 1);
  EXPECT_EQ(group_next(single.region, single.layout, 0), kNilLink);
  GroupTable last(4);
  for (RecordIndex r = 0; r < 4; ++r) {
    last.set_group(r, kMaxGroups - 1);
  }
  EXPECT_EQ(group_next(last.region, last.layout, 2), 3u);
  EXPECT_TRUE(last.mismatches().empty());
}

}  // namespace
}  // namespace wtc::db
