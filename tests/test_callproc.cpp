#include <gtest/gtest.h>

#include "callproc/emulated_client.hpp"
#include "callproc/native_client.hpp"
#include "db/direct.hpp"
#include "sim/cpu.hpp"

namespace wtc::callproc {
namespace {

struct Env {
  Env() : node(scheduler), db(db::make_controller_database()) {
    ids = db::resolve_controller_ids(db->schema());
  }

  sim::Scheduler scheduler;
  sim::Node node;
  sim::Cpu cpu;
  std::unique_ptr<db::Database> db;
  db::ControllerIds ids;
};

TEST(NativeClient, ErrorFreeRunCompletesCallsCleanly) {
  Env env;
  auto client = std::make_shared<NativeCallClient>(
      *env.db, env.ids, env.cpu, common::Rng(1), nullptr);
  env.node.spawn("client", client);
  env.scheduler.run_until(400 * sim::kSecond);

  const auto& stats = client->stats();
  EXPECT_GT(stats.calls_attempted, 50u);
  EXPECT_EQ(stats.golden_mismatches, 0u);
  EXPECT_EQ(stats.auth_failures, 0u);
  EXPECT_EQ(stats.calls_dropped, 0u);
  EXPECT_GT(stats.calls_completed, 50u);
  EXPECT_GT(stats.setup_time_ms.mean(), 0.0);
}

TEST(NativeClient, ReleasesAllRecordsAfterCalls) {
  Env env;
  auto client = std::make_shared<NativeCallClient>(
      *env.db, env.ids, env.cpu, common::Rng(2), nullptr);
  env.node.spawn("client", client);
  env.scheduler.run_until(200 * sim::kSecond);
  env.node.kill(client->pid());

  // All completed calls freed their records; at most `threads` calls were
  // still active at the kill.
  std::size_t active = 0;
  for (db::RecordIndex r = 0;
       r < env.db->schema().tables[env.ids.process].num_records; ++r) {
    if (db::direct::read_header(*env.db, env.ids.process, r).status ==
        db::kStatusActive) {
      ++active;
    }
  }
  EXPECT_LE(active, NativeCallClient::kThreads);
}

TEST(NativeClient, GoldenCompareCatchesForeignCorruption) {
  Env env;
  auto client = std::make_shared<NativeCallClient>(
      *env.db, env.ids, env.cpu, common::Rng(3), nullptr);
  env.node.spawn("client", client);

  // Periodically corrupt every active Connection caller_id; with no
  // audits, clients must notice at teardown via the golden compare.
  std::function<void()> corrupt = [&]() {
    const auto& spec = env.db->schema().tables[env.ids.connection];
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      if (db::direct::read_header(*env.db, env.ids.connection, r).status ==
          db::kStatusActive) {
        db::direct::write_field(*env.db, env.ids.connection, r,
                                env.ids.c_caller_id, -777);
      }
    }
    env.scheduler.schedule_after(sim::kSecond, corrupt);
  };
  env.scheduler.schedule_after(sim::kSecond, corrupt);
  env.scheduler.run_until(60 * sim::kSecond);

  EXPECT_GT(client->stats().golden_mismatches, 0u);
}

TEST(NativeClient, TerminateThreadDropsCallAndRecovers) {
  Env env;
  auto client = std::make_shared<NativeCallClient>(
      *env.db, env.ids, env.cpu, common::Rng(4), nullptr);
  env.node.spawn("client", client);
  env.scheduler.run_until(5 * sim::kSecond);

  const auto dropped_before = client->stats().calls_dropped;
  for (std::uint32_t t = 0; t < NativeCallClient::kThreads; ++t) {
    client->control_terminate_thread(t);
  }
  // Threads with calls in flight dropped them...
  EXPECT_GT(client->stats().calls_dropped, dropped_before);
  // ...and pick up new calls afterwards.
  const auto attempted = client->stats().calls_attempted;
  env.scheduler.run_until(30 * sim::kSecond);
  EXPECT_GT(client->stats().calls_attempted, attempted);
}

TEST(NativeClient, InstrumentedClientSendsNotifications) {
  Env env;
  class CountingSink : public db::NotificationSink {
   public:
    void on_api_event(const db::ApiEvent& event) override {
      ++events;
      if (event.op == db::ApiOp::Move && event.group == db::kGroupStableCalls) {
        ++stable_moves;
      }
    }
    std::size_t events = 0;
    std::size_t stable_moves = 0;
  };
  CountingSink sink;
  auto client = std::make_shared<NativeCallClient>(
      *env.db, env.ids, env.cpu, common::Rng(5), &sink);
  env.node.spawn("client", client);
  env.scheduler.run_until(30 * sim::kSecond);
  EXPECT_GT(sink.events, 100u);
  // Every call that stays active long enough moves its connection record
  // to the stable group (DBmove).
  EXPECT_GT(sink.stable_moves, 0u);
  // Access statistics maintained for prioritized audit.
  EXPECT_GT(env.db->table_stats(env.ids.process).writes, 0u);
}

TEST(NativeClient, CpuContentionSlowsSetup) {
  Env env;
  auto client = std::make_shared<NativeCallClient>(
      *env.db, env.ids, env.cpu, common::Rng(6), nullptr);
  env.node.spawn("client", client);
  // A competing CPU hog books 40ms of work every 100ms.
  std::function<void()> hog = [&]() {
    env.cpu.book(env.scheduler.now(), 40 * sim::kMillisecond);
    env.scheduler.schedule_after(100 * sim::kMillisecond, hog);
  };
  env.scheduler.schedule_after(0, hog);
  env.scheduler.run_until(60 * sim::kSecond);
  const double contended = client->stats().setup_time_ms.mean();

  Env env2;
  auto client2 = std::make_shared<NativeCallClient>(
      *env2.db, env2.ids, env2.cpu, common::Rng(6), nullptr);
  env2.node.spawn("client", client2);
  env2.scheduler.run_until(60 * sim::kSecond);
  const double uncontended = client2->stats().setup_time_ms.mean();

  EXPECT_GT(contended, uncontended * 1.2);
}

TEST(EmulatedClient, GeneratesLoadWithRequestedRatios) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  sim::Cpu cpu;
  db::Database db(db::make_bench_schema());
  db::activate_all_records(db);

  class NullSink : public db::NotificationSink {
   public:
    void on_api_event(const db::ApiEvent&) override {}
  };
  NullSink sink;

  auto client =
      std::make_shared<EmulatedLoadClient>(db, cpu, common::Rng(1), &sink);
  node.spawn("client", client);
  scheduler.run_until(30 * sim::kSecond);

  // ~16*20*30 = 9600 expected operations.
  EXPECT_GT(client->operations(), 8000u);
  EXPECT_LT(client->operations(), 11500u);

  // Access counts follow the 6:5:4:3:2:1 ratio, loosely.
  const auto access = [&](db::TableId t) {
    return static_cast<double>(db.table_stats(t).accesses());
  };
  EXPECT_GT(access(0), access(5) * 3.5);
  EXPECT_GT(access(1), access(4) * 1.5);
  EXPECT_GT(access(5), 0.0);
}

TEST(EmulatedClient, WritesStayWithinCatalogRanges) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  sim::Cpu cpu;
  db::Database db(db::make_bench_schema());
  db::activate_all_records(db);

  auto client =
      std::make_shared<EmulatedLoadClient>(db, cpu, common::Rng(2), nullptr);
  node.spawn("client", client);
  scheduler.run_until(20 * sim::kSecond);

  for (db::TableId t = 0; t < db.table_count(); ++t) {
    const auto& spec = db.schema().tables[t];
    for (db::RecordIndex r = 0; r < spec.num_records; ++r) {
      for (db::FieldId f = 0; f < spec.fields.size(); ++f) {
        if (!spec.fields[f].has_range()) {
          continue;
        }
        const auto value = db::direct::read_field(db, t, r, f);
        EXPECT_GE(value, *spec.fields[f].range_min);
        EXPECT_LE(value, *spec.fields[f].range_max);
      }
    }
  }
}

}  // namespace
}  // namespace wtc::callproc
