#include <gtest/gtest.h>

#include "audit/messages.hpp"
#include "audit/priority.hpp"
#include "audit/process.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"
#include "manager/manager.hpp"
#include "sim/cpu.hpp"

namespace wtc::audit {
namespace {

class CollectingSink : public ReportSink {
 public:
  void on_finding(const Finding& finding) override { findings.push_back(finding); }
  std::vector<Finding> findings;
};

class Harness {
 public:
  Harness() : node(scheduler), db(db::make_controller_database()) {}

  sim::ProcessId spawn_audit(AuditProcessConfig config) {
    audit = std::make_shared<AuditProcess>(*db, cpu, config, &sink, nullptr);
    return node.spawn("audit", audit);
  }

  sim::Scheduler scheduler;
  sim::Node node;
  sim::Cpu cpu;
  std::unique_ptr<db::Database> db;
  CollectingSink sink;
  std::shared_ptr<AuditProcess> audit;
};

class Probe : public sim::Process {
 public:
  void on_message(const sim::Message& message) override {
    replies.push_back(message);
  }
  std::vector<sim::Message> replies;
};

TEST(AuditProcess, HeartbeatElementReplies) {
  Harness h;
  const auto audit_pid = h.spawn_audit({});
  auto probe = std::make_shared<Probe>();
  const auto probe_pid = h.node.spawn("probe", probe);

  sim::Message hb;
  hb.from = probe_pid;
  hb.type = msg::kHeartbeat;
  hb.args = {7};
  h.node.send(audit_pid, hb);
  h.scheduler.run_until(sim::kSecond);

  ASSERT_EQ(probe->replies.size(), 1u);
  EXPECT_EQ(probe->replies[0].type, msg::kHeartbeatReply);
  EXPECT_EQ(probe->replies[0].args[0], 7u);
  EXPECT_EQ(probe->replies[0].from, audit_pid);
}

TEST(AuditProcess, PeriodicAuditDetectsCorruption) {
  Harness h;
  AuditProcessConfig config;
  config.period = sim::kSecond;
  h.spawn_audit(config);

  // Corrupt a static subscriber byte; the next periodic pass must fix it.
  const auto ids = db::resolve_controller_ids(h.db->schema());
  const std::size_t at = h.db->layout().field_offset(ids.subscriber, 3, 1);
  h.db->region()[at] ^= std::byte{0x08};

  h.scheduler.run_until(3 * sim::kSecond);
  ASSERT_FALSE(h.sink.findings.empty());
  EXPECT_EQ(h.sink.findings[0].technique, Technique::StaticChecksum);
  EXPECT_EQ(db::load_i32(h.db->region(), at), db::subscriber_auth_key(3));
  EXPECT_GE(h.audit->cycles(), 2u);
  EXPECT_GT(h.audit->total_cost(), 0);
}

TEST(AuditProcess, EventTriggeredAuditChecksWrittenRecord) {
  Harness h;
  AuditProcessConfig config;
  config.period = 3600 * static_cast<sim::Duration>(sim::kSecond);  // periodic idle
  config.event_triggered = true;
  const auto audit_pid = h.spawn_audit(config);

  const auto ids = db::resolve_controller_ids(h.db->schema());
  IpcNotificationSink sink(h.node, [audit_pid]() { return audit_pid; });
  db::DbApi api(*h.db, [&h]() { return h.scheduler.now(); });
  api.set_audit_hooks(&sink);
  api.init(50);

  db::RecordIndex c = 0;
  ASSERT_EQ(api.alloc_rec(ids.connection, db::kGroupActiveCalls, c), db::Status::Ok);
  // Misbehaving client writes an out-of-range state value.
  api.write_fld(ids.connection, c, ids.c_state, 999);
  h.scheduler.run_until(sim::kSecond);

  ASSERT_FALSE(h.sink.findings.empty());
  EXPECT_EQ(h.sink.findings.back().technique, Technique::RangeCheck);
  EXPECT_EQ(db::direct::read_header(*h.db, ids.connection, c).status,
            db::kStatusFree);
}

TEST(AuditProcess, ProgressIndicatorKillsLockWedgedClient) {
  Harness h;
  AuditProcessConfig config;
  config.period = 3600 * static_cast<sim::Duration>(sim::kSecond);
  config.progress_timeout = 2 * static_cast<sim::Duration>(sim::kSecond);
  h.spawn_audit(config);

  // A client acquires a lock and dies without releasing it.
  auto zombie = std::make_shared<Probe>();
  const auto zombie_pid = h.node.spawn("zombie", zombie);
  ASSERT_TRUE(h.db->try_lock(2, zombie_pid, h.scheduler.now()));

  h.scheduler.run_until(6 * sim::kSecond);
  EXPECT_FALSE(h.node.alive(zombie_pid));
  EXPECT_FALSE(h.db->lock_info(2).has_value());
  bool progress_finding = false;
  for (const auto& finding : h.sink.findings) {
    progress_finding |= finding.technique == Technique::ProgressIndicator;
  }
  EXPECT_TRUE(progress_finding);
}

TEST(AuditProcess, ProgressIndicatorSparesActiveEnvironment) {
  Harness h;
  AuditProcessConfig config;
  config.period = 3600 * static_cast<sim::Duration>(sim::kSecond);
  config.progress_timeout = sim::kSecond;
  const auto audit_pid = h.spawn_audit(config);

  // A client holds a lock but keeps generating API activity: no recovery.
  auto busy = std::make_shared<Probe>();
  const auto busy_pid = h.node.spawn("busy", busy);
  ASSERT_TRUE(h.db->try_lock(2, busy_pid, 0));
  // Periodic activity messages (as the instrumented API would send).
  std::function<void(sim::Time)> ping = [&](sim::Time t) {
    h.scheduler.schedule_at(t, [&, t]() {
      sim::Message m;
      m.from = busy_pid;
      m.type = msg::kApiActivity;
      m.args = {busy_pid, 0, 0, 0, 0};
      h.node.send(audit_pid, m);
      if (t < 10 * sim::kSecond) {
        ping(t + sim::kSecond / 2);
      }
    });
  };
  ping(sim::kSecond / 2);

  h.scheduler.run_until(5 * sim::kSecond);
  EXPECT_TRUE(h.node.alive(busy_pid));
  EXPECT_TRUE(h.db->lock_info(2).has_value());
}

TEST(AuditProcess, LowResourceTriggerReclaimsLeakedRecords) {
  Harness h;
  AuditProcessConfig config;
  config.period = 3600 * static_cast<sim::Duration>(sim::kSecond);  // periodic idle
  config.low_resource_trigger = true;
  h.spawn_audit(config);

  // Leak most of the Process table, past the low-water mark: active records
  // that reference nothing and are referenced by nothing (orphaned "zombie"
  // resources).
  const auto ids = db::resolve_controller_ids(h.db->schema());
  const auto& spec = h.db->schema().tables[ids.process];
  const auto leaked = static_cast<db::RecordIndex>(spec.num_records * 9 / 10);
  ASSERT_LT(static_cast<double>(spec.num_records - leaked) /
                static_cast<double>(spec.num_records),
            LowResourceTriggerElement::kLowWaterFraction);
  for (db::RecordIndex r = 0; r < leaked; ++r) {
    const std::size_t at = h.db->layout().record_offset(ids.process, r);
    auto header = db::load_record_header(h.db->region(), at);
    header.status = db::kStatusActive;
    header.group = db::kGroupActiveCalls;
    db::store_record_header(h.db->region(), at, header);
  }
  db::direct::relink_table(*h.db, ids.process);

  h.scheduler.run_until(2 * static_cast<sim::Time>(LowResourceTriggerElement::kPeriod));

  // The trigger fired and the orphan sweep reclaimed the leak.
  std::uint32_t still_active = 0;
  for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
    if (db::direct::read_header(*h.db, ids.process, r).status ==
        db::kStatusActive) {
      ++still_active;
    }
  }
  EXPECT_EQ(still_active, 0u);
  bool semantic_finding = false;
  for (const auto& finding : h.sink.findings) {
    semantic_finding |= finding.technique == Technique::SemanticCheck;
  }
  EXPECT_TRUE(semantic_finding);
}

TEST(Manager, RestartsDeadAuditProcess) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  sim::Cpu cpu;
  auto db = db::make_controller_database();
  CollectingSink sink;

  int spawned = 0;
  sim::ProcessId current_audit = sim::kNoProcess;
  auto mgr = std::make_shared<manager::Manager>([&]() {
    ++spawned;
    auto audit = std::make_shared<AuditProcess>(*db, cpu, AuditProcessConfig{},
                                                &sink, nullptr);
    current_audit = node.spawn("audit", audit);
    return current_audit;
  });
  node.spawn("manager", mgr);

  scheduler.run_until(5 * sim::kSecond);
  EXPECT_EQ(spawned, 1);
  EXPECT_EQ(mgr->restarts(), 0u);

  // Crash the audit process; the manager must notice and respawn it.
  node.kill(current_audit);
  scheduler.run_until(15 * sim::kSecond);
  EXPECT_EQ(spawned, 2);
  EXPECT_EQ(mgr->restarts(), 1u);
  EXPECT_TRUE(node.alive(mgr->audit_pid()));
  EXPECT_GT(mgr->heartbeats_sent(), 5u);
}

TEST(Manager, RestartsHungAuditProcess) {
  // §4.1: the heartbeat also covers a HUNG audit process (alive, not
  // replying) and scheduling anomalies — not just crashes.
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  sim::Cpu cpu;
  auto db = db::make_controller_database();
  CollectingSink sink;

  class HungProcess : public sim::Process {
    // swallows every message: never acknowledges a heartbeat
  };

  int spawned = 0;
  auto mgr = std::make_shared<manager::Manager>([&]() -> sim::ProcessId {
    ++spawned;
    if (spawned == 1) {
      // First incarnation wedges immediately.
      return node.spawn("audit", std::make_shared<HungProcess>());
    }
    auto audit = std::make_shared<AuditProcess>(*db, cpu, AuditProcessConfig{},
                                                &sink, nullptr);
    return node.spawn("audit", audit);
  });
  node.spawn("manager", mgr);

  scheduler.run_until(20 * sim::kSecond);
  // The hung incarnation was detected by missed heartbeats and replaced;
  // the healthy replacement then stops the restart churn.
  EXPECT_GE(spawned, 2);
  EXPECT_GE(mgr->restarts(), 1u);
  EXPECT_TRUE(node.alive(mgr->audit_pid()));
  const auto restarts_at_20s = mgr->restarts();
  scheduler.run_until(40 * sim::kSecond);
  EXPECT_EQ(mgr->restarts(), restarts_at_20s);  // healthy audit keeps answering
}

TEST(PriorityScheduler, DeficitSelectionTracksAccessShares) {
  auto db = db::make_controller_database();
  // Give table 2 (Process) 8x the accesses of table 3 (Connection).
  db->table_stats(2).writes = 800;
  db->table_stats(3).writes = 100;

  PriorityScheduler scheduler(*db, PriorityWeights{.access_frequency = 1.0,
                                                   .error_history = 0.0,
                                                   .nature = 0.0});
  std::array<int, 5> picks{};
  for (int i = 0; i < 900; ++i) {
    ++picks[scheduler.next_prioritized()];
  }
  EXPECT_GT(picks[2], picks[3] * 4);  // roughly 8:1
  EXPECT_GT(picks[3], 0);             // but no starvation
}

TEST(PriorityScheduler, ErrorHistoryRaisesPriority) {
  auto db = db::make_controller_database();
  for (std::size_t t = 0; t < db->table_count(); ++t) {
    db->table_stats(static_cast<db::TableId>(t)).writes = 100;  // equal load
  }
  db->table_stats(4).errors_last_cycle = 20;

  PriorityScheduler scheduler(*db, PriorityWeights{.access_frequency = 0.2,
                                                   .error_history = 0.8,
                                                   .nature = 0.0});
  scheduler.begin_cycle(*db);  // snapshot error history
  std::array<int, 5> picks{};
  for (int i = 0; i < 100; ++i) {
    ++picks[scheduler.next_prioritized()];
  }
  for (std::size_t t = 0; t < picks.size(); ++t) {
    if (t != 4) {
      EXPECT_GT(picks[4], picks[t]);
    }
  }
}

TEST(PriorityScheduler, RoundRobinCyclesAllTables) {
  auto db = db::make_controller_database();
  PriorityScheduler scheduler(*db);
  std::vector<db::TableId> seen;
  for (std::size_t i = 0; i < db->table_count() * 2; ++i) {
    seen.push_back(scheduler.next_round_robin());
  }
  for (std::size_t t = 0; t < db->table_count(); ++t) {
    EXPECT_EQ(seen[t], static_cast<db::TableId>(t));
    EXPECT_EQ(seen[t + db->table_count()], static_cast<db::TableId>(t));
  }
}

TEST(PriorityScheduler, BeginCycleRotatesErrorCounters) {
  auto db = db::make_controller_database();
  PriorityScheduler scheduler(*db);
  db->table_stats(1).errors_last_cycle = 5;
  scheduler.begin_cycle(*db);
  EXPECT_EQ(db->table_stats(1).errors_last_cycle, 0u);
}

}  // namespace
}  // namespace wtc::audit
