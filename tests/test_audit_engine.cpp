#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "audit/engine.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"
#include "obs/metrics.hpp"

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

class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : db_(db::make_controller_database()),
        ids_(db::resolve_controller_ids(db_->schema())),
        api_(*db_, [this]() { return now_; }) {
    config_.recent_write_grace = 1000;  // 1ms grace for tests
    engine_ = std::make_unique<AuditEngine>(*db_, config_,
                                            [this]() { return now_; });
    engine_->set_report_sink(&sink_);
    engine_->set_client_control(&control_);
    api_.init(77);
    api_.set_audit_hooks(&null_sink_);  // metadata upkeep on
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

TEST_F(EngineTest, CleanDatabaseYieldsNoFindings) {
  make_call();
  make_call(1);
  const auto result = engine_->full_pass(all_tables());
  EXPECT_EQ(result.findings, 0u);
  EXPECT_TRUE(sink_.findings.empty());
  EXPECT_GT(result.cost, 0);
}

TEST_F(EngineTest, StaticChecksumDetectsAndReloadsCatalogCorruption) {
  db_->region()[4] ^= std::byte{0x20};  // catalog version field
  const auto result = engine_->check_static();
  EXPECT_EQ(result.findings, 1u);
  ASSERT_EQ(sink_.findings.size(), 1u);
  EXPECT_EQ(sink_.findings[0].technique, Technique::StaticChecksum);
  EXPECT_EQ(sink_.findings[0].recovery, Recovery::ReloadSpan);
  // Recovery restored the bytes.
  EXPECT_TRUE(db::CatalogView(db_->region()).header_ok());
  // A second pass is clean.
  EXPECT_EQ(engine_->check_static().findings, 0u);
}

// Engines on one thread share one scan scratch set, lent to one scan at a
// time: a scan started from inside another (here, from the report sink)
// would have the set rewritten under it, so it throws instead.
TEST_F(EngineTest, ScanReenteredOnOneThreadThrows) {
  auto other_db = db::make_controller_database();
  AuditEngine other(*other_db, config_, [this]() { return now_; });
  struct ReenteringSink : ReportSink {
    AuditEngine* other = nullptr;
    void on_finding(const Finding&) override { (void)other->check_static(); }
  } reentering;
  reentering.other = &other;
  engine_->set_report_sink(&reentering);
  db_->region()[4] ^= std::byte{0x20};
  EXPECT_THROW((void)engine_->check_static(), std::logic_error);
  // The set is given back when the throw unwinds the outer scan.
  engine_->set_report_sink(&sink_);
  EXPECT_EQ(other.check_static().findings, 0u);
  EXPECT_EQ(engine_->check_static().findings, 1u);
}

TEST_F(EngineTest, StaticChecksumDetectsStaticTableCorruption) {
  const std::size_t at = db_->layout().field_offset(ids_.subscriber, 5, 1);
  db_->region()[at] ^= std::byte{0x01};
  EXPECT_EQ(engine_->check_static().findings, 1u);
  EXPECT_EQ(db::load_i32(db_->region(), at), db::subscriber_auth_key(5));
}

TEST_F(EngineTest, StructuralAuditRepairsSingleIdTagError) {
  const auto [p, c, r] = make_call();
  const std::size_t at = db_->layout().record_offset(ids_.process, p);
  db_->region()[at] ^= std::byte{0x40};  // id_tag bit

  const auto result = engine_->check_structure(ids_.process);
  EXPECT_EQ(result.findings, 1u);
  EXPECT_EQ(sink_.findings[0].technique, Technique::StructuralCheck);
  EXPECT_EQ(sink_.findings[0].recovery, Recovery::RepairHeader);
  EXPECT_EQ(db::direct::read_header(*db_, ids_.process, p).id_tag,
            db::expected_id_tag(ids_.process, p));
  // Record content survived the repair.
  EXPECT_EQ(db::direct::read_field(*db_, ids_.process, p, ids_.p_process_id),
            db::key_of(p));
}

TEST_F(EngineTest, StructuralAuditDetectsStatusAndGroupCorruption) {
  const auto [p, c, r] = make_call();
  (void)c;
  (void)r;
  const std::size_t at = db_->layout().record_offset(ids_.process, p);
  db::store_u32(db_->region(), at + 4, 0x12345678u);  // invalid status
  EXPECT_EQ(engine_->check_structure(ids_.process).findings, 1u);

  // Active record forced onto the free-list group: inconsistent.
  const auto [p2, c2, r2] = make_call(1);
  (void)c2;
  (void)r2;
  const std::size_t at2 = db_->layout().record_offset(ids_.process, p2);
  db::store_u32(db_->region(), at2 + 8, 0);  // group 0 while Active
  EXPECT_GE(engine_->check_structure(ids_.process).findings, 1u);
}

TEST_F(EngineTest, StructuralAuditDetectsBrokenNextLink) {
  make_call();
  make_call(1);
  const std::size_t at = db_->layout().record_offset(ids_.process, 0);
  db::store_u32(db_->region(), at + 12, 55);  // bogus next
  EXPECT_GE(engine_->check_structure(ids_.process).findings, 1u);
  // Relink restored the invariant.
  EXPECT_EQ(engine_->check_structure(ids_.process).findings, 0u);
}

TEST_F(EngineTest, ConsecutiveHeaderCorruptionTriggersFullReload) {
  make_call();
  // Smash three consecutive record headers (misalignment signature).
  for (db::RecordIndex r = 2; r < 5; ++r) {
    const std::size_t at = db_->layout().record_offset(ids_.process, r);
    db::store_u32(db_->region(), at, 0xBAD0BAD0u);
    db::store_u32(db_->region(), at + 4, 0xBAD1BAD1u);
  }
  const auto result = engine_->check_structure(ids_.process);
  bool saw_reload = false;
  for (const auto& finding : sink_.findings) {
    saw_reload |= finding.recovery == Recovery::ReloadAll;
  }
  EXPECT_TRUE(saw_reload);
  EXPECT_GE(result.findings, 1u);
  // Whole region is pristine again (all dynamic state lost).
  EXPECT_TRUE(std::equal(db_->region().begin(), db_->region().end(),
                         db_->pristine().begin()));
}

TEST_F(EngineTest, RangeAuditResetsAndFreesDynamicRecord) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  // state has range [0,4]; write 99 directly (as corruption would).
  db::direct::write_field(*db_, ids_.connection, c, ids_.c_state, 99);

  const auto result = engine_->check_ranges(ids_.connection);
  EXPECT_EQ(result.findings, 1u);
  EXPECT_EQ(sink_.findings[0].technique, Technique::RangeCheck);
  EXPECT_EQ(sink_.findings[0].recovery, Recovery::FreeRecord);
  EXPECT_EQ(db::direct::read_header(*db_, ids_.connection, c).status,
            db::kStatusFree);
}

TEST_F(EngineTest, RangeAuditHonorsGraceWindow) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  api_.write_fld(ids_.connection, c, ids_.c_state, 1);  // fresh write
  db::direct::write_field(*db_, ids_.connection, c, ids_.c_state, 99);
  // Still within grace: skipped.
  EXPECT_EQ(engine_->check_ranges(ids_.connection).findings, 0u);
  advance();
  EXPECT_EQ(engine_->check_ranges(ids_.connection).findings, 1u);
}

TEST_F(EngineTest, RangeAuditSkipsLockedTables) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  db::direct::write_field(*db_, ids_.connection, c, ids_.c_state, 99);
  db_->try_lock(ids_.connection, 55, now_);
  EXPECT_EQ(engine_->check_ranges(ids_.connection).findings, 0u);
  db_->unlock(ids_.connection, 55);
  EXPECT_EQ(engine_->check_ranges(ids_.connection).findings, 1u);
}

TEST_F(EngineTest, SemanticAuditDetectsBrokenLoopAndTerminatesThread) {
  const auto [p, c, r] = make_call(3);
  (void)r;
  // Corrupt the Process->Connection key: the loop no longer closes.
  db::direct::write_field(*db_, ids_.process, p, ids_.p_connection_id,
                          db::key_of(c) + 17);
  const auto result = engine_->check_semantics();
  EXPECT_GE(result.findings, 1u);
  EXPECT_GE(sink_.count(Technique::SemanticCheck), 1u);
  // The anchor record was freed and the writing thread terminated.
  EXPECT_EQ(db::direct::read_header(*db_, ids_.process, p).status,
            db::kStatusFree);
  ASSERT_FALSE(control_.terminated.empty());
  EXPECT_EQ(control_.terminated[0].first, 77u);
  EXPECT_EQ(control_.terminated[0].second, 3u);
}

TEST_F(EngineTest, SemanticAuditSweepsOrphanRecords) {
  const auto [p, c, r] = make_call();
  // Free the Process anchor directly (as a crashed client would leave it).
  db::direct::free_record(*db_, ids_.process, p);
  advance();
  const auto result = engine_->check_semantics();
  EXPECT_GE(result.findings, 1u);
  // The orphaned connection and resource records were reclaimed.
  EXPECT_EQ(db::direct::read_header(*db_, ids_.connection, c).status,
            db::kStatusFree);
  EXPECT_EQ(db::direct::read_header(*db_, ids_.resource, r).status,
            db::kStatusFree);
}

TEST_F(EngineTest, SemanticAuditLeavesIntactLoopsAlone) {
  make_call();
  make_call(1);
  make_call(2);
  EXPECT_EQ(engine_->check_semantics().findings, 0u);
}

TEST_F(EngineTest, EventCheckFindsFreshOutOfRangeWrite) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  // A corrupted client writes garbage through the API (legitimate write
  // from the oracle's perspective, but semantically wrong).
  api_.write_fld(ids_.connection, c, ids_.c_state, 4242);
  // Event-triggered check runs immediately — it must NOT wait out the
  // grace window (the fresh write is the suspect).
  const auto result = engine_->check_record(ids_.connection, c);
  EXPECT_EQ(result.findings, 1u);
  EXPECT_EQ(sink_.findings[0].technique, Technique::RangeCheck);
}

// A header repair ends the event check early; it is still one check in
// audit.checks and audit.check_cost_us.
TEST_F(EngineTest, EventCheckTalliesHeaderRepair) {
  const auto [p, c, r] = make_call();
  (void)p;
  (void)r;
  const std::size_t at = db_->layout().record_offset(ids_.connection, c);
  db::store_u32(db_->region(), at, db::load_u32(db_->region(), at) ^ 0x1u);

  obs::Recorder recorder;
  CheckResult result;
  {
    obs::ScopedRecorder scope(recorder);
    result = engine_->check_record(ids_.connection, c);
  }
  EXPECT_EQ(result.findings, 1u);
  EXPECT_EQ(sink_.count(Technique::StructuralCheck), 1u);
  EXPECT_EQ(db::direct::read_header(*db_, ids_.connection, c).id_tag,
            db::expected_id_tag(ids_.connection, c));
  const auto snapshot = recorder.snapshot();
  EXPECT_EQ(snapshot.counter(obs::Counter::audit_checks), 1u);
  EXPECT_GT(result.cost, 0);
  EXPECT_EQ(snapshot.histogram(obs::Histogram::audit_check_cost_us).sum,
            static_cast<std::uint64_t>(result.cost));
}

TEST_F(EngineTest, SelectiveMonitorFlagsRareValueOfPeakedAttribute) {
  config_.selective_monitoring = true;
  engine_ = std::make_unique<AuditEngine>(*db_, config_, [this]() { return now_; });
  engine_->set_report_sink(&sink_);
  engine_->set_client_control(&control_);

  // 14 calls all stamp task_token = 0x7A5C.
  std::vector<db::RecordIndex> procs;
  for (int i = 0; i < 14; ++i) {
    const auto [p, c, r] = make_call(static_cast<std::uint32_t>(i % 4));
    (void)c;
    (void)r;
    api_.write_fld(ids_.process, p, ids_.p_task_token, 0x7A5C);
    procs.push_back(p);
  }
  advance();
  EXPECT_EQ(engine_->check_selective(ids_.process).findings, 0u);

  // One token corrupted: a statistical outlier in a peaked distribution.
  db::direct::write_field(*db_, ids_.process, procs[4], ids_.p_task_token, 0x7A5D);
  const auto result = engine_->check_selective(ids_.process);
  EXPECT_GE(result.findings, 1u);
  EXPECT_GE(sink_.count(Technique::SelectiveMonitor), 1u);
}

TEST_F(EngineTest, SelectiveMonitorIgnoresFlatDistributions) {
  config_.selective_monitoring = true;
  engine_ = std::make_unique<AuditEngine>(*db_, config_, [this]() { return now_; });
  engine_->set_report_sink(&sink_);

  for (int i = 0; i < 14; ++i) {
    const auto [p, c, r] = make_call();
    (void)p;
    (void)r;
    // caller_id unique per call: flat histogram, no derivable invariant.
    api_.write_fld(ids_.connection, c, ids_.c_caller_id, 1000 + i);
  }
  advance();
  EXPECT_EQ(engine_->check_selective(ids_.connection).findings, 0u);
}

TEST_F(EngineTest, FullPassCostAccumulates) {
  make_call();
  const auto result = engine_->full_pass(all_tables());
  EXPECT_GT(result.cost, 1000);  // non-trivial modelled CPU time
}

}  // namespace
}  // namespace wtc::audit
