#include <gtest/gtest.h>

#include "audit/escalation.hpp"

#include "common/rng.hpp"
#include "audit/process.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"
#include "sim/cpu.hpp"

namespace wtc::audit {
namespace {

class CollectingSink : public ReportSink {
 public:
  void on_finding(const Finding& finding) override { findings.push_back(finding); }
  std::vector<Finding> findings;
};

Finding finding_on(db::TableId table, sim::Time time) {
  Finding finding;
  finding.technique = Technique::RangeCheck;
  finding.recovery = Recovery::ResetField;
  finding.table = table;
  finding.time = time;
  finding.length = 4;
  return finding;
}

TEST(Escalation, QuietTablesNeverEscalate) {
  auto db = db::make_controller_database();
  EscalationPolicy policy(*db, {});
  CollectingSink sink;
  sim::Time now = 0;
  for (int i = 0; i < 100; ++i) {
    now += 20 * sim::kSecond;  // slower than threshold/window allows
    EXPECT_EQ(policy.on_finding(finding_on(2, now), now, &sink), Recovery::None);
  }
  EXPECT_EQ(policy.table_reloads(), 0u);
  EXPECT_EQ(policy.full_reloads(), 0u);
}

TEST(Escalation, RepeatedFindingsTriggerTableReload) {
  auto db = db::make_controller_database();
  const auto ids = db::resolve_controller_ids(db->schema());
  EscalationConfig config;
  config.table_reload_threshold = 5;
  EscalationPolicy policy(*db, config);
  CollectingSink sink;

  // Put dynamic state in the table so the reload is observable.
  db::DbApi api(*db, []() { return sim::Time{0}; });
  api.init(1);
  db::RecordIndex r = 0;
  ASSERT_EQ(api.alloc_rec(ids.process, db::kGroupActiveCalls, r), db::Status::Ok);

  sim::Time now = sim::kSecond;
  Recovery last = Recovery::None;
  for (int i = 0; i < 5; ++i) {
    now += sim::kSecond;
    last = policy.on_finding(finding_on(ids.process, now), now, &sink);
  }
  EXPECT_EQ(last, Recovery::ReloadSpan);
  EXPECT_EQ(policy.table_reloads(), 1u);
  // The table was reloaded from disk: the allocated record is free again.
  EXPECT_EQ(db::direct::read_header(*db, ids.process, r).status, db::kStatusFree);
  // The escalation itself was reported.
  ASSERT_FALSE(sink.findings.empty());
  EXPECT_EQ(sink.findings.back().recovery, Recovery::ReloadSpan);

  // Cooldown: the immediate next burst does not re-escalate.
  for (int i = 0; i < 5; ++i) {
    now += sim::kSecond / 2;
    last = policy.on_finding(finding_on(ids.process, now), now, &sink);
  }
  EXPECT_EQ(policy.table_reloads(), 1u);
}

TEST(Escalation, FindingExactlyAtWindowBoundaryStillCounts) {
  auto db = db::make_controller_database();
  EscalationConfig config;
  config.window = 30 * static_cast<sim::Duration>(sim::kSecond);
  config.table_reload_threshold = 4;
  CollectingSink sink;

  // Four findings whose spread is EXACTLY the window: the oldest sits on
  // the horizon (t == now - window) and must still be counted, so the
  // burst escalates.
  {
    EscalationPolicy policy(*db, config);
    sim::Time start = 100 * sim::kSecond;
    EXPECT_EQ(policy.on_finding(finding_on(2, start), start, &sink),
              Recovery::None);
    EXPECT_EQ(policy.on_finding(finding_on(2, start + 10 * sim::kSecond),
                                start + 10 * sim::kSecond, &sink),
              Recovery::None);
    EXPECT_EQ(policy.on_finding(finding_on(2, start + 20 * sim::kSecond),
                                start + 20 * sim::kSecond, &sink),
              Recovery::None);
    EXPECT_EQ(policy.on_finding(finding_on(2, start + 30 * sim::kSecond),
                                start + 30 * sim::kSecond, &sink),
              Recovery::ReloadSpan);
    EXPECT_EQ(policy.table_reloads(), 1u);
  }

  // One microsecond wider and the oldest finding ages out: no escalation.
  {
    EscalationPolicy policy(*db, config);
    sim::Time start = 100 * sim::kSecond;
    policy.on_finding(finding_on(2, start), start, &sink);
    policy.on_finding(finding_on(2, start + 10 * sim::kSecond),
                      start + 10 * sim::kSecond, &sink);
    policy.on_finding(finding_on(2, start + 20 * sim::kSecond),
                      start + 20 * sim::kSecond, &sink);
    const sim::Time late = start + 30 * sim::kSecond + 1;
    EXPECT_EQ(policy.on_finding(finding_on(2, late), late, &sink),
              Recovery::None);
    EXPECT_EQ(policy.table_reloads(), 0u);
  }
}

TEST(Escalation, CooldownSuppressesReloadWithoutResettingWindow) {
  auto db = db::make_controller_database();
  EscalationConfig config;
  // A window longer than the cooldown, so findings from inside the
  // cooldown are still in the window when it expires.
  config.window = 90 * static_cast<sim::Duration>(sim::kSecond);
  config.table_reload_threshold = 3;
  EscalationPolicy policy(*db, config);
  CollectingSink sink;

  // First burst escalates at t=12s.
  sim::Time now = 10 * sim::kSecond;
  policy.on_finding(finding_on(2, now), now, &sink);
  now += sim::kSecond;
  policy.on_finding(finding_on(2, now), now, &sink);
  now += sim::kSecond;
  ASSERT_EQ(policy.on_finding(finding_on(2, now), now, &sink),
            Recovery::ReloadSpan);
  ASSERT_EQ(policy.table_reloads(), 1u);
  const sim::Time escalated_at = now;  // 12 s

  // A would-be level-1 escalation during cooldown: the threshold is
  // reached again (3 findings at 13/14/15 s) but nothing reloads and no
  // escalation finding is re-reported.
  const std::size_t findings_reported = sink.findings.size();
  for (int i = 0; i < 3; ++i) {
    now += sim::kSecond;  // 13 s, 14 s, 15 s — inside the 60 s cooldown
    EXPECT_EQ(policy.on_finding(finding_on(2, now), now, &sink),
              Recovery::None);
  }
  EXPECT_EQ(policy.table_reloads(), 1u);
  EXPECT_EQ(sink.findings.size(), findings_reported);

  // ...and the cooldown did NOT reset the sliding window: the findings
  // accumulated during cooldown still count once it expires, so the very
  // first finding after the boundary escalates immediately. (Exactly at
  // the boundary, too: the cooldown test is strict `<`.)
  now = escalated_at + static_cast<sim::Time>(kEscalationCooldown);  // 72 s
  EXPECT_EQ(policy.on_finding(finding_on(2, now), now, &sink),
            Recovery::ReloadSpan);
  EXPECT_EQ(policy.table_reloads(), 2u);
}

TEST(Escalation, MultiTableDegenerationTriggersFullReload) {
  auto db = db::make_controller_database();
  const auto ids = db::resolve_controller_ids(db->schema());
  EscalationConfig config;
  config.table_reload_threshold = 3;
  EscalationPolicy policy(*db, config);
  CollectingSink sink;

  sim::Time now = sim::kSecond;
  for (const db::TableId table :
       {ids.process, ids.connection, ids.resource}) {
    for (int i = 0; i < 3; ++i) {
      now += sim::kSecond;
      policy.on_finding(finding_on(table, now), now, &sink);
    }
  }
  EXPECT_EQ(policy.table_reloads(), 3u);
  EXPECT_EQ(policy.full_reloads(), 1u);
  bool full_reported = false;
  for (const auto& finding : sink.findings) {
    full_reported |= finding.recovery == Recovery::ReloadAll;
  }
  EXPECT_TRUE(full_reported);
  // After the full reload the region equals the pristine image.
  EXPECT_TRUE(std::equal(db->region().begin(), db->region().end(),
                         db->pristine().begin()));
}

TEST(Escalation, IntegratesWithAuditProcessUnderErrorStorm) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  sim::Cpu cpu;
  auto db = db::make_controller_database();
  const auto ids = db::resolve_controller_ids(db->schema());
  CollectingSink sink;

  AuditProcessConfig config;
  config.period = sim::kSecond;
  config.escalation = true;
  config.escalation_config.table_reload_threshold = 6;
  config.engine.recent_write_grace = 100;
  auto audit = std::make_shared<AuditProcess>(*db, cpu, config, &sink, nullptr);
  node.spawn("audit", audit);

  // An error storm concentrated on the Connection table: corrupt a state
  // field every 300 ms. Localized repairs fire, then escalation reloads
  // the table.
  common::Rng rng(3);
  std::function<void()> storm = [&]() {
    const auto record = static_cast<db::RecordIndex>(
        rng.uniform(db->schema().tables[ids.connection].num_records));
    // Activate + corrupt directly so range audit keeps finding errors.
    const std::size_t at = db->layout().record_offset(ids.connection, record);
    auto header = db::load_record_header(db->region(), at);
    header.status = db::kStatusActive;
    header.group = db::kGroupActiveCalls;
    db::store_record_header(db->region(), at, header);
    db::direct::write_field(*db, ids.connection, record, ids.c_state, 9999);
    scheduler.schedule_after(300 * sim::kMillisecond, storm);
  };
  scheduler.schedule_after(0, storm);
  scheduler.run_until(30 * sim::kSecond);

  ASSERT_NE(audit->escalation(), nullptr);
  EXPECT_GE(audit->escalation()->table_reloads(), 1u);
}

}  // namespace
}  // namespace wtc::audit
