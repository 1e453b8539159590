// Incremental (dirty-tracking) audit: generation bookkeeping in the store
// and the epoch-watermark scan variants in the engine.
#include <gtest/gtest.h>

#include <vector>

#include "audit/engine.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"

namespace wtc::audit {
namespace {

class CollectingSink : public ReportSink {
 public:
  void on_finding(const Finding& finding) override { findings.push_back(finding); }
  [[nodiscard]] std::size_t count(Technique technique) const {
    std::size_t n = 0;
    for (const auto& finding : findings) {
      if (finding.technique == technique) {
        ++n;
      }
    }
    return n;
  }
  std::vector<Finding> findings;
};

class RecordingControl : public ClientControl {
 public:
  void terminate_client_thread(sim::ProcessId client, std::uint32_t thread) override {
    terminated.emplace_back(client, thread);
  }
  void kill_client_process(sim::ProcessId client) override {
    killed.push_back(client);
  }
  std::vector<std::pair<sim::ProcessId, std::uint32_t>> terminated;
  std::vector<sim::ProcessId> killed;
};

class IncrementalAuditTest : public ::testing::Test {
 protected:
  IncrementalAuditTest()
      : db_(db::make_controller_database()),
        ids_(db::resolve_controller_ids(db_->schema())),
        api_(*db_, [this]() { return now_; }) {
    config_.recent_write_grace = 1000;  // 1ms grace for tests
    config_.incremental = true;
    remake_engine();
    api_.init(77);
    api_.set_audit_hooks(&null_sink_);  // metadata upkeep on
  }

  /// Rebuilds the engine after a config change (watermarks reset too).
  void remake_engine() {
    engine_ = std::make_unique<AuditEngine>(*db_, config_,
                                            [this]() { return now_; });
    engine_->set_report_sink(&sink_);
    engine_->set_client_control(&control_);
  }

  /// Sets up one complete, intact call loop; returns (p, c, r).
  std::array<db::RecordIndex, 3> make_call(std::uint32_t thread = 0) {
    api_.set_thread_id(thread);
    db::RecordIndex p = 0, c = 0, r = 0;
    EXPECT_EQ(api_.alloc_rec(ids_.process, db::kGroupActiveCalls, p), db::Status::Ok);
    EXPECT_EQ(api_.alloc_rec(ids_.connection, db::kGroupActiveCalls, c),
              db::Status::Ok);
    EXPECT_EQ(api_.alloc_rec(ids_.resource, db::kGroupActiveCalls, r), db::Status::Ok);
    api_.write_fld(ids_.process, p, ids_.p_process_id, db::key_of(p));
    api_.write_fld(ids_.process, p, ids_.p_connection_id, db::key_of(c));
    api_.write_fld(ids_.process, p, ids_.p_status, 1);
    api_.write_fld(ids_.connection, c, ids_.c_connection_id, db::key_of(c));
    api_.write_fld(ids_.connection, c, ids_.c_channel_id, db::key_of(r));
    api_.write_fld(ids_.connection, c, ids_.c_state, 1);
    api_.write_fld(ids_.resource, r, ids_.r_channel_id, db::key_of(r));
    api_.write_fld(ids_.resource, r, ids_.r_process_id, db::key_of(p));
    api_.write_fld(ids_.resource, r, ids_.r_status, 1);
    advance();  // step past the write-grace window
    return {p, c, r};
  }

  void advance(sim::Time delta = 10'000) { now_ += delta; }

  [[nodiscard]] std::vector<db::TableId> all_tables() const {
    std::vector<db::TableId> order;
    for (std::size_t t = 0; t < db_->table_count(); ++t) {
      order.push_back(static_cast<db::TableId>(t));
    }
    return order;
  }

  class NullSink : public db::NotificationSink {
   public:
    void on_api_event(const db::ApiEvent&) override {}
  };

  std::unique_ptr<db::Database> db_;
  db::ControllerIds ids_;
  EngineConfig config_;
  std::unique_ptr<AuditEngine> engine_;
  CollectingSink sink_;
  RecordingControl control_;
  NullSink null_sink_;
  db::DbApi api_;
  sim::Time now_ = 0;
};

// --- dirty bookkeeping in the store ---

TEST_F(IncrementalAuditTest, ApiWritesStampGenerations) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  const std::uint64_t before = db_->write_generation();
  const std::uint64_t field_before = db_->field_generation(ids_.connection, c);
  const std::uint64_t header_before = db_->header_generation(ids_.connection, c);

  api_.write_fld(ids_.connection, c, ids_.c_state, 2);

  // The global counter advanced and was stamped on the record's field area;
  // a pure field write must not disturb the header generation (that is what
  // lets the structural check skip call-data churn).
  EXPECT_GT(db_->write_generation(), before);
  EXPECT_GT(db_->field_generation(ids_.connection, c), field_before);
  EXPECT_EQ(db_->header_generation(ids_.connection, c), header_before);
  EXPECT_EQ(db_->table_field_generation(ids_.connection),
            db_->field_generation(ids_.connection, c));

  const std::size_t at =
      db_->layout().field_offset(ids_.connection, c, ids_.c_state);
  EXPECT_TRUE(db_->span_written_since(at, 4, before));
}

TEST_F(IncrementalAuditTest, DirectWritesStampGenerations) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  const std::uint64_t field_before = db_->field_generation(ids_.connection, c);
  db::direct::write_field(*db_, ids_.connection, c, ids_.c_state, 3);
  EXPECT_GT(db_->field_generation(ids_.connection, c), field_before);

  // repair_header rewrites the 16-byte header: header generation moves.
  const std::uint64_t header_before = db_->header_generation(ids_.connection, c);
  db::direct::repair_header(*db_, ids_.connection, c);
  EXPECT_GT(db_->header_generation(ids_.connection, c), header_before);
}

TEST_F(IncrementalAuditTest, InjectorMarkWrittenStampsGenerations) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  // Through-store corruption (the injector's path): flip a byte in place,
  // then mark the span — exactly what DbErrorInjector does.
  const std::size_t field_at =
      db_->layout().field_offset(ids_.connection, c, ids_.c_state);
  const std::uint64_t field_before = db_->field_generation(ids_.connection, c);
  const std::uint64_t header_before = db_->header_generation(ids_.connection, c);
  db_->region()[field_at] ^= std::byte{0x40};
  db_->mark_written(field_at, 1);
  EXPECT_GT(db_->field_generation(ids_.connection, c), field_before);
  EXPECT_EQ(db_->header_generation(ids_.connection, c), header_before);

  // A header-byte mark moves the header generation, not the field one.
  const std::size_t header_at = db_->layout().record_offset(ids_.connection, c);
  const std::uint64_t field_now = db_->field_generation(ids_.connection, c);
  db_->region()[header_at] ^= std::byte{0x01};
  db_->mark_written(header_at, 1);
  EXPECT_GT(db_->header_generation(ids_.connection, c), header_before);
  EXPECT_EQ(db_->field_generation(ids_.connection, c), field_now);
}

// --- incremental scans: skip clean data, rescan dirty data ---

TEST_F(IncrementalAuditTest, CleanDataCostsNothingAfterWatermarkAdoption) {
  make_call();
  make_call(1);
  const auto first = engine_->incremental_pass(all_tables());
  EXPECT_EQ(first.findings, 0u);
  EXPECT_GT(first.cost, 0);  // everything was dirty relative to watermark 0

  // No writes since: every check proves table-level cleanliness from the
  // generation counters and books zero cost.
  EXPECT_EQ(engine_->check_static(Scan::Incremental).cost, 0);
  EXPECT_EQ(engine_->check_structure(ids_.process, Scan::Incremental).cost, 0);
  EXPECT_EQ(engine_->check_ranges(ids_.connection, Scan::Incremental).cost, 0);
  const auto second = engine_->incremental_pass(all_tables());
  EXPECT_EQ(second.findings, 0u);
  EXPECT_LT(second.cost, first.cost);
}

TEST_F(IncrementalAuditTest, IncrementalRangeAuditCatchesThroughStoreCorruption) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  ASSERT_EQ(engine_->incremental_pass(all_tables()).findings, 0u);

  // state has range [0,4]; injector-style corruption through the store.
  const std::size_t at =
      db_->layout().field_offset(ids_.connection, c, ids_.c_state);
  db::store_i32(db_->region(), at, 99);
  db_->mark_written(at, 4);

  const auto result = engine_->check_ranges(ids_.connection, Scan::Incremental);
  EXPECT_EQ(result.findings, 1u);
  EXPECT_EQ(sink_.count(Technique::RangeCheck), 1u);
}

TEST_F(IncrementalAuditTest, GraceSkipHoldsWatermarkForNextCycle) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  ASSERT_EQ(engine_->check_ranges(ids_.connection, Scan::Incremental).findings, 0u);

  api_.write_fld(ids_.connection, c, ids_.c_state, 1);  // fresh write
  db::direct::write_field(*db_, ids_.connection, c, ids_.c_state, 99);
  // Still within the write-grace window: the record is skipped unverified,
  // so the scan must hold its watermark below the record's generation.
  EXPECT_EQ(engine_->check_ranges(ids_.connection, Scan::Incremental).findings, 0u);
  advance();
  // No further writes — only the held-back watermark makes the record dirty
  // again. If the scan had adopted its start-of-scan mark unconditionally,
  // this corruption would never be revisited.
  EXPECT_EQ(engine_->check_ranges(ids_.connection, Scan::Incremental).findings, 1u);
}

// --- the full-sweep escape hatch for bypass corruption ---

TEST_F(IncrementalAuditTest, FullSweepCatchesBypassCorruption) {
  config_.full_sweep_interval = 3;
  remake_engine();
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  ASSERT_EQ(engine_->incremental_pass(all_tables()).findings, 0u);

  // Raw memory flip with NO dirty stamp — models a hardware upset that
  // bypassed the store entirely.
  const std::size_t at =
      db_->layout().field_offset(ids_.connection, c, ids_.c_state);
  db::store_i32(db_->region(), at, 99);

  // Cycle 2: pure incremental scan sees no dirty stamp and misses it.
  EXPECT_EQ(engine_->incremental_pass(all_tables()).findings, 0u);
  EXPECT_EQ(engine_->full_sweeps(), 0u);
  // Cycle 3 is the exhaustive sweep: bounded detection latency.
  EXPECT_GE(engine_->incremental_pass(all_tables()).findings, 1u);
  EXPECT_EQ(engine_->full_sweeps(), 1u);
  EXPECT_EQ(sink_.count(Technique::RangeCheck), 1u);
}

TEST_F(IncrementalAuditTest, FullSweepCatchesBypassStaticCorruption) {
  config_.full_sweep_interval = 2;
  remake_engine();
  ASSERT_EQ(engine_->incremental_pass(all_tables()).findings, 0u);

  const std::size_t at = db_->layout().field_offset(ids_.subscriber, 5, 1);
  db_->region()[at] ^= std::byte{0x01};  // no mark_written

  EXPECT_EQ(engine_->check_static(Scan::Incremental).findings, 0u);
  // Cycle 2 sweeps: checksum mismatch found, chunk reloaded from disk.
  EXPECT_EQ(engine_->incremental_pass(all_tables()).findings, 1u);
  EXPECT_EQ(db::load_i32(db_->region(), at), db::subscriber_auth_key(5));
}

TEST_F(IncrementalAuditTest, SweepUpgradesCarriedIncrementalUnit) {
  // Under a budget, an incremental Ranges(connection) unit truncated in
  // cycle 1 is still carried when cycle 2 sweeps. The sweep must upgrade
  // it to exhaustive and restart it; running it on incrementally would
  // only visit dirty records and miss corruption that bypassed the store.
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  make_call(1);
  make_call(2);
  // Budget: cycle 1's Static and Structure(connection) units (measured on
  // an unbudgeted twin, which sees the same all-dirty state) plus one
  // microsecond, so Ranges(connection) truncates after its first record,
  // the first call's connection record.
  AuditEngine twin(*db_, config_, [this]() { return now_; });
  config_.cycle_budget = twin.check_static(Scan::Incremental).cost +
                         twin.check_structure(ids_.connection, Scan::Incremental).cost +
                         1;
  config_.full_sweep_interval = 2;
  remake_engine();
  const std::vector<db::TableId> order{ids_.connection};

  ASSERT_EQ(engine_->incremental_pass(order).findings, 0u);  // cycle 1
  ASSERT_GT(engine_->carry_depth(), 0u);

  // Raw flip of the verified record, with no dirty stamp.
  const std::size_t at =
      db_->layout().field_offset(ids_.connection, c, ids_.c_state);
  db::store_i32(db_->region(), at, 99);

  (void)engine_->incremental_pass(order);  // cycle 2: the sweep
  EXPECT_EQ(engine_->full_sweeps(), 1u);
  (void)engine_->incremental_pass(order);  // cycle 3
  // Caught before the next sweep (cycle 4) starts.
  EXPECT_EQ(sink_.count(Technique::RangeCheck), 1u);
}

// --- scrub attestation on the free paths ---

TEST_F(IncrementalAuditTest, FreedRecordScrubIsAttestedAndSkipped) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  ASSERT_EQ(api_.free_rec(ids_.connection, c), db::Status::Ok);
  advance();

  // The free wrote the whole field area back to catalog defaults and
  // attested it: field and scrub generations coincide, so the incremental
  // range audit proves the record clean without reading a single field.
  EXPECT_EQ(db_->field_generation(ids_.connection, c),
            db_->scrub_generation(ids_.connection, c));
  EXPECT_EQ(engine_->check_ranges(ids_.connection, Scan::Incremental).findings, 0u);

  // Any later field write — legitimate or injected — breaks the attestation.
  const std::size_t at =
      db_->layout().field_offset(ids_.connection, c, ids_.c_state);
  db::store_i32(db_->region(), at, 99);
  db_->mark_written(at, 4);
  EXPECT_GT(db_->field_generation(ids_.connection, c),
            db_->scrub_generation(ids_.connection, c));
  EXPECT_EQ(engine_->check_ranges(ids_.connection, Scan::Incremental).findings, 1u);
}

// free_rec scrubs with the in-region catalog's defaults. When a corrupted
// catalog makes those differ from the schema's, the scrub is a plain write,
// not an attested one: the incremental range audit reads the freed record
// and finds what the exhaustive scan finds.
TEST(IncrementalAuditScrub, ScrubFromCorruptedCatalogDefaultIsNotAttested) {
  const auto findings_after_free = [](Scan scan) {
    auto db = db::make_controller_database();
    const auto ids = db::resolve_controller_ids(db->schema());
    sim::Time now = 0;
    db::DbApi api(*db, [&now]() { return now; });
    api.init(77);
    EngineConfig config;
    config.recent_write_grace = 1000;
    config.incremental = true;
    AuditEngine engine(*db, config, [&now]() { return now; });
    CollectingSink sink;
    engine.set_report_sink(&sink);

    db::RecordIndex r = 0;
    EXPECT_EQ(api.alloc_rec(ids.resource, db::kGroupActiveCalls, r), db::Status::Ok);
    const std::size_t power_default =
        db::kCatalogHeaderSize + db->table_count() * db::kTableDescriptorSize +
        (db->layout().table(ids.resource).first_field_index + ids.r_power_level) *
            db::kFieldDescriptorSize +
        16;
    db::store_i32(db->region(), power_default, -7);  // the schema says 50
    db->mark_written(power_default, 4);
    EXPECT_EQ(api.free_rec(ids.resource, r), db::Status::Ok);
    EXPECT_NE(db->field_generation(ids.resource, r), db->scrub_generation(ids.resource, r));
    now += 10'000;  // past the write grace
    return engine.check_ranges(ids.resource, scan).findings;
  };
  const std::size_t exhaustive = findings_after_free(Scan::Exhaustive);
  EXPECT_EQ(exhaustive, 1u);
  EXPECT_EQ(findings_after_free(Scan::Incremental), exhaustive);
}

TEST_F(IncrementalAuditTest, RepairHeaderDropScrubsStaleFields) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  // Unrecoverable status: repair drops the record to FREE. The stale call
  // data must be scrubbed with it — a status transition with no field write
  // would silently change which range rules apply.
  const std::size_t at = db_->layout().record_offset(ids_.connection, c);
  db::store_u32(db_->region(), at + 4, 0xDEADBEEFu);
  db_->mark_written(at + 4, 4);
  db::direct::repair_header(*db_, ids_.connection, c);

  EXPECT_EQ(db::direct::read_header(*db_, ids_.connection, c).status,
            db::kStatusFree);
  const auto& fields = db_->schema().tables.at(ids_.connection).fields;
  for (db::FieldId f = 0; f < fields.size(); ++f) {
    EXPECT_EQ(db::direct::read_field(*db_, ids_.connection, c, f),
              fields[f].default_value);
  }
  EXPECT_EQ(db_->field_generation(ids_.connection, c),
            db_->scrub_generation(ids_.connection, c));
  advance();
  EXPECT_EQ(engine_->check_ranges(ids_.connection, Scan::Incremental).findings, 0u);
}

}  // namespace
}  // namespace wtc::audit
