// Supervision robustness: heartbeat behaviour over a lossy channel, the
// duplicated active/standby manager, stale-incarnation heartbeat replies,
// and graceful audit degradation via element quarantine.
#include <gtest/gtest.h>

#include <stdexcept>

#include "audit/messages.hpp"
#include "audit/process.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"
#include "manager/manager.hpp"
#include "sim/cpu.hpp"

namespace wtc {
namespace {

class CollectingSink : public audit::ReportSink {
 public:
  void on_finding(const audit::Finding& finding) override {
    findings.push_back(finding);
  }
  std::vector<audit::Finding> findings;
};

/// Environment: controller db + audit factory shared by every test.
struct Env {
  Env() : node(scheduler), db(db::make_controller_database()) {}

  std::function<sim::ProcessId()> audit_factory(
      audit::AuditProcessConfig config = {}) {
    return [this, config]() {
      audit = std::make_shared<audit::AuditProcess>(*db, cpu, config, &sink,
                                                    nullptr);
      return node.spawn("audit", audit);
    };
  }

  sim::Scheduler scheduler;
  sim::Node node;
  sim::Cpu cpu;
  std::unique_ptr<db::Database> db;
  CollectingSink sink;
  std::shared_ptr<audit::AuditProcess> audit;
};

audit::AuditProcessConfig reliable_audit_config() {
  audit::AuditProcessConfig config;
  config.reliable_ipc = true;
  config.reliable.retry_after = 100 * static_cast<sim::Duration>(sim::kMillisecond);
  return config;
}

manager::ManagerConfig reliable_manager_config() {
  manager::ManagerConfig config;
  config.reliable_heartbeat = true;
  config.reliable.retry_after = 100 * static_cast<sim::Duration>(sim::kMillisecond);
  return config;
}

// --- acceptance criterion (a): lossy channel vs. the heartbeat ---

TEST(LossyHeartbeat, PlainHeartbeatFiresSpuriousRestartsUnderDrops) {
  Env env;
  env.node.set_channel_faults({.drop_probability = 0.25, .seed = 11});
  auto mgr = std::make_shared<manager::Manager>(env.audit_factory());
  env.node.spawn("manager", mgr);

  env.scheduler.run_until(120 * sim::kSecond);

  // The audit process never crashed or hung, yet the fire-and-forget
  // heartbeat restarted it: every one of these is spurious.
  EXPECT_GT(mgr->restarts_live(), 0u);
  EXPECT_EQ(mgr->restarts(), mgr->restarts_live());
}

TEST(LossyHeartbeat, ReliableHeartbeatQuietUnderDropsYetDetectsRealDeath) {
  Env env;
  env.node.set_channel_faults({.drop_probability = 0.25, .seed = 11});
  auto mgr = std::make_shared<manager::Manager>(
      env.audit_factory(reliable_audit_config()), reliable_manager_config());
  env.node.spawn("manager", mgr);

  env.scheduler.run_until(120 * sim::kSecond);
  EXPECT_EQ(mgr->restarts(), 0u);  // retries absorb the 25% loss

  // A real crash is still detected and repaired through the same channel.
  env.node.kill(mgr->audit_pid());
  env.scheduler.run_until(140 * sim::kSecond);
  EXPECT_GE(mgr->restarts(), 1u);
  EXPECT_EQ(mgr->restarts_live(), 0u);
  EXPECT_TRUE(env.node.alive(mgr->audit_pid()));
}

// --- satellite: stale-incarnation heartbeat replies ---

TEST(Manager, IgnoresHeartbeatReplyFromPreviousAuditIncarnation) {
  Env env;
  auto mgr = std::make_shared<manager::Manager>(env.audit_factory());
  const auto mgr_pid = env.node.spawn("manager", mgr);

  env.scheduler.run_until(10 * sim::kSecond);
  const std::uint64_t acked_before = mgr->last_acked();
  ASSERT_GT(acked_before, 0u);
  ASSERT_EQ(mgr->audit_epoch(), 1u);

  // A reply from a prior incarnation: right pid, stale epoch tag. It must
  // not count as liveness for the current incarnation. (Its sequence is
  // far ahead of anything the live exchange can reach in this test, so
  // acceptance would be visible in last_acked().)
  sim::Message stale;
  stale.from = mgr->audit_pid();
  stale.type = audit::msg::kHeartbeatReply;
  stale.args = {acked_before + 1000, mgr->audit_epoch() - 1};
  env.node.send(mgr_pid, stale);
  env.scheduler.run_until(11 * sim::kSecond);
  EXPECT_LT(mgr->last_acked(), acked_before + 1000);

  // The same reply tagged with the live epoch IS accepted (sanity check
  // that the filter keys on the epoch, not on the inflated sequence).
  sim::Message fresh = stale;
  fresh.args = {acked_before + 1000, mgr->audit_epoch()};
  env.node.send(mgr_pid, fresh);
  env.scheduler.run_until(12 * sim::kSecond);
  EXPECT_EQ(mgr->last_acked(), acked_before + 1000);
}

// --- acceptance criterion (b): duplicated-manager takeover ---

TEST(DuplicatedManager, StandbyTakesOverAndKeepsAuditCovered) {
  Env env;
  audit::AuditProcessConfig audit_config;
  audit_config.period = sim::kSecond;
  auto pair = manager::spawn_manager_pair(
      env.node, env.audit_factory(audit_config));

  env.scheduler.run_until(5 * sim::kSecond);
  ASSERT_EQ(pair.first->role(), manager::Role::Active);
  ASSERT_EQ(pair.second->role(), manager::Role::Standby);
  const auto audit_pid = pair.first->audit_pid();
  ASSERT_TRUE(env.node.alive(audit_pid));

  // Kill the active manager: the standby must notice the silence and
  // adopt supervision of the SAME audit process (no needless respawn).
  env.node.kill(pair.first_pid);
  env.scheduler.run_until(15 * sim::kSecond);
  EXPECT_EQ(pair.second->role(), manager::Role::Active);
  EXPECT_EQ(pair.second->takeovers(), 1u);
  EXPECT_EQ(pair.second->audit_pid(), audit_pid);
  EXPECT_TRUE(env.node.alive(audit_pid));
  EXPECT_EQ(pair.second->restarts(), 0u);

  // Now the audit dies: the promoted standby restarts it.
  env.node.kill(audit_pid);
  env.scheduler.run_until(25 * sim::kSecond);
  EXPECT_GE(pair.second->restarts(), 1u);
  ASSERT_TRUE(env.node.alive(pair.second->audit_pid()));

  // Zero permanent loss of audit coverage: a fresh corruption is still
  // detected and repaired by the restarted audit.
  const auto ids = db::resolve_controller_ids(env.db->schema());
  const std::size_t at = env.db->layout().field_offset(ids.subscriber, 3, 1);
  env.db->region()[at] ^= std::byte{0x08};
  env.sink.findings.clear();
  env.scheduler.run_until(30 * sim::kSecond);
  ASSERT_FALSE(env.sink.findings.empty());
  EXPECT_EQ(db::load_i32(env.db->region(), at), db::subscriber_auth_key(3));
}

TEST(DuplicatedManager, PairTeardownWithArmedRetryTimersIsClean) {
  // Teardown path for the reliable heartbeat: a blackholed channel leaves
  // the active manager's ReliableSender with armed backoff timers, and
  // the whole world (pair, node, scheduler) is then torn down. Each
  // ~ReliableSender must cancel its outstanding EventIds during ~Node —
  // before the fix the timers stayed queued referencing freed senders
  // (heap-use-after-free under the sanitizer CI job).
  {
    Env env;
    env.node.set_channel_faults({.drop_probability = 1.0, .seed = 3});
    auto pair = manager::spawn_manager_pair(
        env.node, env.audit_factory(reliable_audit_config()),
        reliable_manager_config());
    env.scheduler.run_until(2 * sim::kSecond);
    // Heartbeats went into a black hole: frames are in flight with live
    // retry timers pending in the scheduler.
    EXPECT_GT(pair.first->heartbeats_sent(), 0u);
    EXPECT_EQ(pair.first->last_acked(), 0u);
    EXPECT_GT(env.scheduler.pending_events(), 0u);
    // Also kill both manager processes first — the mixed order (kill,
    // then destroy) is what bench teardown and campaign scopes produce.
    env.node.kill(pair.first_pid);
    env.node.kill(pair.second_pid);
  }
  SUCCEED();
}

TEST(DuplicatedManager, PartitionPromotesStandbyThenTermDemotesOldActive) {
  Env env;
  auto pair = manager::spawn_manager_pair(env.node, env.audit_factory());
  env.scheduler.run_until(2 * sim::kSecond);
  ASSERT_EQ(pair.first->role(), manager::Role::Active);

  // Total partition: every message (peer heartbeats included) is lost.
  env.scheduler.schedule_after(0, [&]() {
    env.node.set_channel_faults({.drop_probability = 1.0, .seed = 5});
  });
  env.scheduler.run_until(10 * sim::kSecond);
  // Both sides now believe they are active (the paper's dual-manager
  // split-brain during a queue outage).
  EXPECT_EQ(pair.second->takeovers(), 1u);
  EXPECT_EQ(pair.first->role(), manager::Role::Active);
  EXPECT_EQ(pair.second->role(), manager::Role::Active);
  EXPECT_GT(pair.second->term(), pair.first->term());

  // Heal the partition: the higher term wins and the old active demotes,
  // converging back to exactly one active manager.
  env.scheduler.schedule_after(0, [&]() { env.node.clear_channel_faults(); });
  env.scheduler.run_until(15 * sim::kSecond);
  EXPECT_EQ(pair.first->role(), manager::Role::Standby);
  EXPECT_EQ(pair.second->role(), manager::Role::Active);
  EXPECT_EQ(pair.first->demotions(), 1u);
}

// --- acceptance criterion (c): element quarantine ---

constexpr std::uint32_t kPoisonMessage = 77;

class CrashyElement final : public audit::AuditElement {
 public:
  [[nodiscard]] std::string_view name() const override { return "crashy"; }
  [[nodiscard]] bool accepts(std::uint32_t type) const override {
    return type == kPoisonMessage;
  }
  void on_message(audit::AuditProcess&, const sim::Message&) override {
    throw std::runtime_error("element bug");
  }
};

TEST(Quarantine, CrashingElementIsDisabledWhileOthersKeepDetecting) {
  Env env;
  audit::AuditProcessConfig config;
  config.period = sim::kSecond;
  const auto audit_pid = env.audit_factory(config)();
  env.audit->add_element(std::make_unique<CrashyElement>());

  for (int i = 0; i < 5; ++i) {
    sim::Message poison;
    poison.type = kPoisonMessage;
    env.node.send(audit_pid, poison,
                  static_cast<sim::Duration>(i) *
                      static_cast<sim::Duration>(100 * sim::kMillisecond));
  }
  env.scheduler.run_until(2 * sim::kSecond);

  // The element crashed repeatedly inside the window: quarantined, and
  // the quarantine itself was reported as a finding.
  EXPECT_TRUE(env.audit->element_disabled("crashy"));
  EXPECT_EQ(env.audit->quarantined_count(), 1u);
  EXPECT_EQ(env.audit->element_faults(), 3u);  // disabled after the third
  bool quarantine_reported = false;
  for (const auto& finding : env.sink.findings) {
    quarantine_reported |= finding.recovery == audit::Recovery::DisableElement &&
                           finding.technique == audit::Technique::ElementQuarantine;
  }
  EXPECT_TRUE(quarantine_reported);
  EXPECT_TRUE(env.node.alive(audit_pid));  // the process survived

  // The surviving elements still detect and repair injected corruption.
  const auto ids = db::resolve_controller_ids(env.db->schema());
  const std::size_t at = env.db->layout().field_offset(ids.subscriber, 3, 1);
  env.db->region()[at] ^= std::byte{0x10};
  env.sink.findings.clear();
  env.scheduler.run_until(5 * sim::kSecond);
  ASSERT_FALSE(env.sink.findings.empty());
  EXPECT_EQ(db::load_i32(env.db->region(), at), db::subscriber_auth_key(3));
  EXPECT_FALSE(env.audit->element_disabled("periodic-audit"));
}

TEST(Quarantine, SlowFaultRateOutsideWindowIsTolerated) {
  Env env;
  audit::AuditProcessConfig config;
  config.period = 3600 * static_cast<sim::Duration>(sim::kSecond);
  const auto audit_pid = env.audit_factory(config)();
  env.audit->add_element(std::make_unique<CrashyElement>());

  // One fault every 6 s: never 3 inside any 10 s window.
  for (int i = 0; i < 6; ++i) {
    sim::Message poison;
    poison.type = kPoisonMessage;
    env.node.send(audit_pid, poison,
                  static_cast<sim::Duration>(i) *
                      static_cast<sim::Duration>(6 * sim::kSecond));
  }
  env.scheduler.run_until(40 * sim::kSecond);

  EXPECT_EQ(env.audit->element_faults(), 6u);
  EXPECT_FALSE(env.audit->element_disabled("crashy"));
  EXPECT_EQ(env.audit->quarantined_count(), 0u);
}

}  // namespace
}  // namespace wtc
