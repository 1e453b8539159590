#include <gtest/gtest.h>

#include <vector>

#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"

namespace wtc::db {
namespace {

class CountingSink : public NotificationSink {
 public:
  void on_api_event(const ApiEvent& event) override { events.push_back(event); }
  std::vector<ApiEvent> events;
};

class ApiTest : public ::testing::Test {
 protected:
  ApiTest()
      : db_(make_controller_database()),
        ids_(resolve_controller_ids(db_->schema())),
        api_(*db_, [this]() { return now_; }) {
    api_.init(100);
  }

  std::unique_ptr<Database> db_;
  ControllerIds ids_;
  DbApi api_;
  sim::Time now_ = 0;
};

TEST_F(ApiTest, AllocWriteReadFreeRoundTrip) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);

  ASSERT_EQ(api_.write_fld(ids_.process, r, ids_.p_status, 2), Status::Ok);
  std::int32_t value = -1;
  ASSERT_EQ(api_.read_fld(ids_.process, r, ids_.p_status, value), Status::Ok);
  EXPECT_EQ(value, 2);

  // Whole-record write/read.
  const std::int32_t rec[] = {5, 6, 1, 3, 77};
  ASSERT_EQ(api_.write_rec(ids_.process, r, rec), Status::Ok);
  std::int32_t out[5] = {};
  ASSERT_EQ(api_.read_rec(ids_.process, r, out), Status::Ok);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[4], 77);

  ASSERT_EQ(api_.free_rec(ids_.process, r), Status::Ok);
  EXPECT_EQ(api_.read_fld(ids_.process, r, ids_.p_status, value),
            Status::RecordNotActive);
}

TEST_F(ApiTest, AllocInitializesFieldsToCatalogDefaults) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.resource, kGroupActiveCalls, r), Status::Ok);
  std::int32_t power = -1;
  ASSERT_EQ(api_.read_fld(ids_.resource, r, ids_.r_power_level, power), Status::Ok);
  EXPECT_EQ(power, 50);  // catalog default from the schema
}

TEST_F(ApiTest, AllocExhaustionReturnsNoFreeRecord) {
  const auto total = db_->schema().tables[ids_.process].num_records;
  RecordIndex r = 0;
  for (RecordIndex i = 0; i < total; ++i) {
    ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  }
  EXPECT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r),
            Status::NoFreeRecord);
}

TEST_F(ApiTest, MoveRelinksGroups) {
  RecordIndex a = 0, b = 0, c = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, a), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, b), Status::Ok);
  ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, c), Status::Ok);
  ASSERT_EQ(api_.move_rec(ids_.connection, b, kGroupStableCalls), Status::Ok);

  const auto ha = direct::read_header(*db_, ids_.connection, a);
  const auto hb = direct::read_header(*db_, ids_.connection, b);
  const auto hc = direct::read_header(*db_, ids_.connection, c);
  EXPECT_EQ(ha.group, kGroupActiveCalls);
  EXPECT_EQ(hb.group, kGroupStableCalls);
  EXPECT_EQ(hc.group, kGroupActiveCalls);
  // Chain invariant: a's next in its group skips b and reaches c.
  EXPECT_EQ(ha.next, c);
  EXPECT_EQ(hb.next, kNilLink);
}

TEST_F(ApiTest, MoveRejectsBadGroup) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.connection, kGroupActiveCalls, r), Status::Ok);
  EXPECT_EQ(api_.move_rec(ids_.connection, r, kMaxGroups), Status::BadGroup);
  EXPECT_EQ(api_.alloc_rec(ids_.connection, 0, r), Status::BadGroup);
}

TEST_F(ApiTest, BoundsChecking) {
  std::int32_t v = 0;
  EXPECT_EQ(api_.read_fld(999, 0, 0, v), Status::NoSuchTable);
  EXPECT_EQ(api_.read_fld(ids_.process, 9999, 0, v), Status::NoSuchRecord);
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  EXPECT_EQ(api_.read_fld(ids_.process, r, 99, v), Status::NoSuchField);
  EXPECT_EQ(api_.write_fld(ids_.process, r, 99, 1), Status::NoSuchField);
}

TEST_F(ApiTest, RequiresConnection) {
  DbApi fresh(*db_, []() { return sim::Time{0}; });
  std::int32_t v = 0;
  EXPECT_EQ(fresh.read_fld(ids_.process, 0, 0, v), Status::NotConnected);
  EXPECT_EQ(fresh.close(), Status::NotConnected);
}

TEST_F(ApiTest, TransactionsBlockOtherClients) {
  DbApi other(*db_, [this]() { return now_; });
  other.init(200);

  ASSERT_EQ(api_.txn_begin(ids_.process), Status::Ok);
  RecordIndex r = 0;
  EXPECT_EQ(other.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Locked);
  EXPECT_EQ(other.txn_begin(ids_.process), Status::Locked);
  // The lock owner proceeds.
  EXPECT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  ASSERT_EQ(api_.txn_end(ids_.process), Status::Ok);
  EXPECT_EQ(other.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
}

TEST_F(ApiTest, CloseReleasesLocks) {
  ASSERT_EQ(api_.txn_begin(ids_.process), Status::Ok);
  ASSERT_EQ(api_.close(), Status::Ok);
  EXPECT_FALSE(db_->lock_info(ids_.process).has_value());
}

TEST_F(ApiTest, CatalogCorruptionFailsOperations) {
  db_->region()[0] ^= std::byte{0xFF};  // smash the catalog magic
  std::int32_t v = 0;
  EXPECT_EQ(api_.read_fld(ids_.process, 0, 0, v), Status::CatalogCorrupt);
  RecordIndex r = 0;
  EXPECT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r),
            Status::CatalogCorrupt);
  EXPECT_EQ(api_.txn_begin(ids_.process), Status::CatalogCorrupt);

  db_->reload_catalog_from_disk();
  EXPECT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
}

// Every op resolves its table by checking the catalog header, then the
// table bound, then decoding the descriptor; the status names the first
// check that fails.
TEST_F(ApiTest, ResolveChecksHeaderThenTableThenDescriptor) {
  std::int32_t v = 0;
  const auto past_last = static_cast<TableId>(db_->table_count());
  EXPECT_EQ(api_.read_fld(past_last, 0, 0, v), Status::NoSuchTable);

  // A record size too small for the table's fields: a bad descriptor.
  const std::size_t record_size_at =
      kCatalogHeaderSize + ids_.process * kTableDescriptorSize + 8;
  const std::uint32_t record_size = load_u32(db_->region(), record_size_at);
  store_u32(db_->region(), record_size_at, 1);
  db_->mark_written(record_size_at, 4);
  EXPECT_EQ(api_.read_fld(ids_.process, 0, 0, v), Status::CatalogCorrupt);
  store_u32(db_->region(), record_size_at, record_size);
  db_->mark_written(record_size_at, 4);
  EXPECT_EQ(api_.read_fld(ids_.process, 0, 0, v), Status::RecordNotActive);

  db_->region()[0] ^= std::byte{0xFF};  // smash the catalog magic
  EXPECT_EQ(api_.read_fld(past_last, 0, 0, v), Status::CatalogCorrupt);
}

// Field defaults come from the in-region catalog, read on every alloc and
// free, so catalog corruption reaches clients (§3.2) — not from the
// trusted schema.
TEST_F(ApiTest, AllocAndFreeWriteTheCatalogsCorruptedDefault) {
  const TableLayout& tl = db_->layout().table(ids_.resource);
  const std::size_t descriptor =
      kCatalogHeaderSize + db_->table_count() * kTableDescriptorSize +
      (tl.first_field_index + ids_.r_power_level) * kFieldDescriptorSize;
  ASSERT_EQ(load_i32(db_->region(), descriptor + 16), 50);  // the schema's
  store_i32(db_->region(), descriptor + 16, -7);
  db_->mark_written(descriptor + 16, 4);

  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.resource, kGroupActiveCalls, r), Status::Ok);
  std::int32_t power = 0;
  ASSERT_EQ(api_.read_fld(ids_.resource, r, ids_.r_power_level, power), Status::Ok);
  EXPECT_EQ(power, -7);

  ASSERT_EQ(api_.write_fld(ids_.resource, r, ids_.r_power_level, 60), Status::Ok);
  ASSERT_EQ(api_.free_rec(ids_.resource, r), Status::Ok);
  EXPECT_EQ(load_i32(db_->region(),
                     db_->layout().field_offset(ids_.resource, r, ids_.r_power_level)),
            -7);
}

TEST_F(ApiTest, FieldDescriptorsPastTheRegionEndResetFieldsToZero) {
  // first_field_index (+20 in the table descriptor) pushed so far that
  // every field descriptor of the table lies past the region's end.
  const std::size_t table_desc =
      kCatalogHeaderSize + ids_.resource * kTableDescriptorSize;
  store_u32(db_->region(), table_desc + 20, 0x7FFFFFFFu);
  db_->mark_written(table_desc + 20, 4);
  const TableLayout& tl = db_->layout().table(ids_.resource);
  const auto expect_fields_zero = [&](RecordIndex r) {
    for (FieldId f = 0; f < tl.num_fields; ++f) {
      EXPECT_EQ(load_i32(db_->region(), db_->layout().field_offset(ids_.resource, r, f)),
                0)
          << "field " << f;
    }
  };

  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.resource, kGroupActiveCalls, r), Status::Ok);
  expect_fields_zero(r);
  ASSERT_EQ(api_.write_fld(ids_.resource, r, ids_.r_power_level, 60), Status::Ok);
  ASSERT_EQ(api_.free_rec(ids_.resource, r), Status::Ok);
  expect_fields_zero(r);
}

TEST_F(ApiTest, InstrumentedApiNotifiesAndTracksMetadata) {
  CountingSink sink;
  api_.set_audit_hooks(&sink);
  api_.set_thread_id(7);
  now_ = 12345;

  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  ASSERT_EQ(api_.write_fld(ids_.process, r, ids_.p_status, 1), Status::Ok);
  std::int32_t v = 0;
  ASSERT_EQ(api_.read_fld(ids_.process, r, ids_.p_status, v), Status::Ok);

  // Update-class ops post IPC events (alloc + write); reads feed the
  // access statistics only.
  ASSERT_EQ(sink.events.size(), 2u);
  EXPECT_EQ(sink.events[0].op, ApiOp::Alloc);
  EXPECT_TRUE(sink.events[0].is_update);
  EXPECT_EQ(sink.events[1].op, ApiOp::WriteFld);
  EXPECT_TRUE(sink.events[1].is_update);
  EXPECT_EQ(sink.events[1].client, 100u);
  // The write event carries the written field's value.
  EXPECT_EQ(sink.events[1].payload_len, 1);
  EXPECT_EQ(sink.events[1].payload[0], 1);

  const auto& meta = db_->record_meta(ids_.process, r);
  EXPECT_EQ(meta.last_writer, 100u);
  EXPECT_EQ(meta.last_writer_thread, 7u);
  EXPECT_EQ(meta.last_access, 12345u);
  EXPECT_GE(meta.access_count, 3u);

  const auto& stats = db_->table_stats(ids_.process);
  EXPECT_EQ(stats.writes, 2u);  // alloc + write_fld
  EXPECT_EQ(stats.reads, 1u);
}

TEST_F(ApiTest, UninstrumentedApiKeepsNoMetadata) {
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  EXPECT_EQ(db_->record_meta(ids_.process, r).last_writer, sim::kNoProcess);
  EXPECT_EQ(db_->table_stats(ids_.process).writes, 0u);
}

class RecordingObserver : public RegionObserver {
 public:
  void on_legitimate_write(std::size_t offset, std::size_t len) override {
    writes.emplace_back(offset, len);
  }
  void on_client_read(sim::ProcessId, std::size_t offset, std::size_t len) override {
    reads.emplace_back(offset, len);
  }
  std::vector<std::pair<std::size_t, std::size_t>> writes;
  std::vector<std::pair<std::size_t, std::size_t>> reads;
};

TEST_F(ApiTest, ObserverSeesReadsAndWrites) {
  RecordingObserver observer;
  db_->set_observer(&observer);
  RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, kGroupActiveCalls, r), Status::Ok);
  const std::size_t writes_after_alloc = observer.writes.size();
  EXPECT_GT(writes_after_alloc, 0u);

  ASSERT_EQ(api_.write_fld(ids_.process, r, ids_.p_status, 1), Status::Ok);
  EXPECT_EQ(observer.writes.back().first,
            db_->layout().field_offset(ids_.process, r, ids_.p_status));
  EXPECT_EQ(observer.writes.back().second, 4u);

  std::int32_t v = 0;
  const std::size_t reads_before = observer.reads.size();
  ASSERT_EQ(api_.read_fld(ids_.process, r, ids_.p_status, v), Status::Ok);
  // A field read reports both the status-word consultation and the field
  // bytes themselves.
  ASSERT_EQ(observer.reads.size(), reads_before + 2);
  EXPECT_EQ(observer.reads.back().first,
            db_->layout().field_offset(ids_.process, r, ids_.p_status));
  EXPECT_EQ(observer.reads.back().second, 4u);
}

TEST_F(ApiTest, ApiCostsShapedLikeFigure4) {
  // Instrumented costs exceed originals, and DBwrite_rec pays the largest
  // relative overhead while DBinit pays the least (Figure 4).
  double max_ratio = 0.0, min_ratio = 1e9;
  ApiOp max_op = ApiOp::Init, min_op = ApiOp::Init;
  for (const ApiOp op : {ApiOp::Init, ApiOp::Close, ApiOp::ReadRec, ApiOp::ReadFld,
                         ApiOp::WriteRec, ApiOp::WriteFld, ApiOp::Move}) {
    const auto original = api_cost(op, false);
    const auto modified = api_cost(op, true);
    EXPECT_GT(modified, original);
    const double ratio = static_cast<double>(modified) / static_cast<double>(original);
    if (ratio > max_ratio) {
      max_ratio = ratio;
      max_op = op;
    }
    if (ratio < min_ratio) {
      min_ratio = ratio;
      min_op = op;
    }
  }
  EXPECT_EQ(max_op, ApiOp::WriteRec);
  EXPECT_EQ(min_op, ApiOp::Init);
}

TEST(Direct, FreeRecordResetsAndRelinks) {
  auto db = make_controller_database();
  const auto ids = resolve_controller_ids(db->schema());
  DbApi api(*db, []() { return sim::Time{0}; });
  api.init(1);
  RecordIndex a = 0, b = 0;
  ASSERT_EQ(api.alloc_rec(ids.process, kGroupActiveCalls, a), Status::Ok);
  ASSERT_EQ(api.alloc_rec(ids.process, kGroupActiveCalls, b), Status::Ok);
  ASSERT_EQ(api.write_fld(ids.process, a, ids.p_status, 3), Status::Ok);

  direct::free_record(*db, ids.process, a);
  const auto header = direct::read_header(*db, ids.process, a);
  EXPECT_EQ(header.status, kStatusFree);
  EXPECT_EQ(header.group, 0u);
  // Fields reset to defaults.
  EXPECT_EQ(direct::read_field(*db, ids.process, a, ids.p_status), 0);
  // b is now alone in the active group.
  EXPECT_EQ(direct::read_header(*db, ids.process, b).next, kNilLink);
}

TEST(Direct, RepairHeaderFixesTagAndBadStatus) {
  auto db = make_controller_database();
  const auto ids = resolve_controller_ids(db->schema());
  const std::size_t at = db->layout().record_offset(ids.process, 3);
  auto header = load_record_header(db->region(), at);
  header.id_tag = 0xDEADBEEF;
  header.status = 0x12345678;  // invalid
  store_record_header(db->region(), at, header);

  direct::repair_header(*db, ids.process, 3);
  const auto repaired = load_record_header(db->region(), at);
  EXPECT_EQ(repaired.id_tag, expected_id_tag(ids.process, 3));
  EXPECT_EQ(repaired.status, kStatusFree);
  EXPECT_EQ(repaired.group, 0u);
}

}  // namespace
}  // namespace wtc::db
