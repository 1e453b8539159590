#include <gtest/gtest.h>

#include <bit>
#include <unordered_map>
#include <vector>

#include "callproc/vm_program.hpp"
#include "common/rng.hpp"
#include "db/controller_schema.hpp"
#include "inject/client_injector.hpp"
#include "inject/db_injector.hpp"
#include "inject/oracle.hpp"
#include "inject/outcome.hpp"
#include "sim/scheduler.hpp"

namespace wtc::inject {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  OracleTest()
      : db_(db::make_controller_database()),
        oracle_(*db_, [this]() { return now_; }) {
    ids_ = db::resolve_controller_ids(db_->schema());
  }

  std::unique_ptr<db::Database> db_;
  db::ControllerIds ids_;
  CorruptionOracle oracle_;
  sim::Time now_ = 0;
};

TEST_F(OracleTest, ClientReadBeforeDetectionEscapes) {
  const std::size_t offset = db_->layout().field_offset(ids_.connection, 4, 2);
  oracle_.record_injection(offset, 3);
  now_ = 100;
  oracle_.on_client_read(9, offset, 4);

  const auto summary = oracle_.summary();
  EXPECT_EQ(summary.escaped, 1u);
  EXPECT_EQ(summary.caught, 0u);

  // A later audit finding does not flip an escaped error to caught.
  now_ = 200;
  audit::Finding finding;
  finding.offset = offset;
  finding.length = 4;
  oracle_.on_finding(finding);
  EXPECT_EQ(oracle_.summary().escaped, 1u);
  EXPECT_EQ(oracle_.summary().caught, 0u);
}

TEST_F(OracleTest, AuditFindingBeforeReadCatchesWithLatency) {
  const std::size_t offset = db_->layout().field_offset(ids_.connection, 4, 2);
  now_ = 1'000'000;
  oracle_.record_injection(offset, 3);
  now_ = 4'000'000;  // 3 seconds later
  audit::Finding finding;
  finding.technique = audit::Technique::RangeCheck;
  finding.offset = db_->layout().record_offset(ids_.connection, 4);
  finding.length = db_->layout().table(ids_.connection).record_size;
  oracle_.on_finding(finding);

  now_ = 5'000'000;
  oracle_.on_client_read(9, offset, 4);  // too late: already caught

  const auto summary = oracle_.summary();
  EXPECT_EQ(summary.caught, 1u);
  EXPECT_EQ(summary.escaped, 0u);
  EXPECT_NEAR(summary.detection_latency_s.mean(), 3.0, 0.01);
  ASSERT_EQ(oracle_.records().size(), 1u);
  EXPECT_EQ(oracle_.records()[0].caught_by, audit::Technique::RangeCheck);
}

TEST_F(OracleTest, LegitimateOverwriteIsNoEffect) {
  const std::size_t offset = db_->layout().field_offset(ids_.connection, 4, 2);
  oracle_.record_injection(offset, 3);
  oracle_.on_legitimate_write(offset - 8, 16);  // covers the byte
  const auto summary = oracle_.summary();
  EXPECT_EQ(summary.overwritten, 1u);
  EXPECT_EQ(summary.no_effect(), 1u);
}

TEST_F(OracleTest, UntouchedInjectionStaysLatent) {
  oracle_.record_injection(db_->layout().data_start() + 3, 1);
  const auto summary = oracle_.summary();
  EXPECT_EQ(summary.latent, 1u);
  EXPECT_EQ(summary.no_effect(), 1u);
}

TEST_F(OracleTest, NonOverlappingEventsDoNotDecide) {
  const std::size_t offset = db_->layout().field_offset(ids_.connection, 4, 2);
  oracle_.record_injection(offset, 3);
  oracle_.on_client_read(9, offset + 8, 4);
  oracle_.on_legitimate_write(offset - 8, 4);
  EXPECT_EQ(oracle_.summary().latent, 1u);
}

TEST_F(OracleTest, ClassifiesTargetKinds) {
  // Catalog byte.
  oracle_.record_injection(4, 0);
  // Static table byte.
  oracle_.record_injection(db_->layout().record_offset(ids_.subscriber, 0) +
                               db::kRecordHeaderSize,
                           0);
  // Dynamic record header.
  oracle_.record_injection(db_->layout().record_offset(ids_.process, 0), 0);
  // Ranged field (Connection.state is field index 4).
  oracle_.record_injection(db_->layout().field_offset(ids_.connection, 0, ids_.c_state),
                           0);
  // Key field.
  oracle_.record_injection(
      db_->layout().field_offset(ids_.connection, 0, ids_.c_connection_id), 0);
  // Unruled field.
  oracle_.record_injection(
      db_->layout().field_offset(ids_.connection, 0, ids_.c_caller_id), 0);

  const auto& records = oracle_.records();
  EXPECT_EQ(records[0].kind, TargetKind::Catalog);
  EXPECT_EQ(records[1].kind, TargetKind::StaticTable);
  EXPECT_EQ(records[2].kind, TargetKind::RecordHeader);
  EXPECT_EQ(records[3].kind, TargetKind::RangedField);
  EXPECT_EQ(records[4].kind, TargetKind::KeyField);
  EXPECT_EQ(records[5].kind, TargetKind::UnruledField);
}

// --- live-byte filter equivalence ---

/// The oracle's decision logic before the live-byte filter: every write,
/// read and finding scans all injections recorded so far, and a map names
/// the latest injection at each tracked byte. The equivalence test below
/// holds the filtered oracle to it.
class LinearScanOracle final : public db::RegionObserver {
 public:
  explicit LinearScanOracle(const sim::Time& now) : now_(now) {}

  void record_injection(std::size_t offset) {
    InjectionRecord record;
    record.id = records_.size();
    record.offset = offset;
    record.injected_at = now_;
    record.live_bytes = 1;
    if (auto it = latest_.find(offset); it != latest_.end()) {
      auto& old = records_[it->second];
      if (old.fate == ErrorFate::Pending && old.live_bytes > 0) {
        --old.live_bytes;
        if (old.live_bytes == 0) {
          decide(old, ErrorFate::Overwritten, std::nullopt);
        }
      }
    }
    latest_[offset] = records_.size();
    records_.push_back(record);
  }
  void on_legitimate_write(std::size_t offset, std::size_t len) override {
    for (auto& record : records_) {
      if (overlaps(record, offset, len)) {
        latest_.erase(record.offset);
        record.live_bytes = 0;
        decide(record, ErrorFate::Overwritten, std::nullopt);
      }
    }
  }
  void on_client_read(sim::ProcessId, std::size_t offset, std::size_t len) override {
    for (auto& record : records_) {
      if (overlaps(record, offset, len)) {
        decide(record, ErrorFate::Escaped, std::nullopt);
      }
    }
  }
  void on_finding(const audit::Finding& finding) {
    for (auto& record : records_) {
      if (overlaps(record, finding.offset, finding.length)) {
        decide(record, ErrorFate::Caught, finding.technique);
      }
    }
  }
  [[nodiscard]] const std::vector<InjectionRecord>& records() const {
    return records_;
  }

 private:
  static bool overlaps(const InjectionRecord& record, std::size_t offset,
                       std::size_t len) {
    return record.live_bytes > 0 && record.offset >= offset &&
           record.offset < offset + len;
  }
  void decide(InjectionRecord& record, ErrorFate fate,
              std::optional<audit::Technique> technique) {
    if (record.fate == ErrorFate::Pending) {
      record.fate = fate;
      record.decided_at = now_;
      record.caught_by = technique;
    }
  }

  const sim::Time& now_;
  std::vector<InjectionRecord> records_;
  std::unordered_map<std::size_t, std::size_t> latest_;
};

/// Forwards the database's region hooks to both oracles.
class TeeObserver final : public db::RegionObserver {
 public:
  TeeObserver(db::RegionObserver& a, db::RegionObserver& b) : a_(a), b_(b) {}
  void on_legitimate_write(std::size_t offset, std::size_t len) override {
    a_.on_legitimate_write(offset, len);
    b_.on_legitimate_write(offset, len);
  }
  void on_client_read(sim::ProcessId pid, std::size_t offset,
                      std::size_t len) override {
    a_.on_client_read(pid, offset, len);
    b_.on_client_read(pid, offset, len);
  }

 private:
  db::RegionObserver& a_;
  db::RegionObserver& b_;
};

void expect_same_records(const CorruptionOracle& oracle,
                         const LinearScanOracle& reference, int step) {
  const auto& got = oracle.records();
  const auto& want = reference.records();
  ASSERT_EQ(got.size(), want.size()) << "step " << step;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].offset, want[i].offset) << "step " << step << " record " << i;
    ASSERT_EQ(got[i].fate, want[i].fate) << "step " << step << " record " << i;
    ASSERT_EQ(got[i].decided_at, want[i].decided_at)
        << "step " << step << " record " << i;
    ASSERT_EQ(got[i].caught_by, want[i].caught_by)
        << "step " << step << " record " << i;
    ASSERT_EQ(got[i].live_bytes, want[i].live_bytes)
        << "step " << step << " record " << i;
  }
}

TEST_F(OracleTest, LiveByteFilterMatchesLinearScanReference) {
  LinearScanOracle reference(now_);
  TeeObserver tee(oracle_, reference);
  db_->set_observer(&tee);
  const std::size_t region = db_->region().size();

  // Injection targets: a few hot bytes (repeat flips) at and around 64-byte
  // word boundaries, plus anywhere in the region.
  std::vector<std::size_t> hot;
  for (std::size_t b = 64; b + 64 < region && hot.size() < 24; b += region / 8) {
    hot.insert(hot.end(), {b - 1, b, b + 1, b + 63});
  }
  const auto inject = [&](std::size_t offset) {
    oracle_.record_injection(offset, 0);
    reference.record_injection(offset);
  };
  const auto find = [&](std::size_t offset, std::size_t len) {
    audit::Finding finding;
    finding.technique = static_cast<audit::Technique>(offset % 3);
    finding.offset = offset;
    finding.length = len;
    oracle_.on_finding(finding);
    reference.on_finding(finding);
  };

  // Fixed prefix: repeat flips at one byte (the pending one is superseded),
  // then a flip at a byte whose earlier injection already escaped (both
  // stay live), then a write that clears them all.
  inject(hot[1]);
  inject(hot[1]);
  now_ = 10;
  oracle_.on_client_read(1, hot[1], 1);
  reference.on_client_read(1, hot[1], 1);
  now_ = 20;
  inject(hot[1]);
  find(hot[1], 1);
  expect_same_records(oracle_, reference, -1);
  EXPECT_EQ(oracle_.records()[1].fate, ErrorFate::Escaped);
  EXPECT_EQ(oracle_.records()[1].live_bytes, 1);
  EXPECT_EQ(oracle_.records()[2].fate, ErrorFate::Caught);
  db_->note_write(hot[1] - 2, 130);  // crosses two word boundaries
  expect_same_records(oracle_, reference, -2);

  common::Rng rng(0x0DAC1E5);
  for (int step = 0; step < 8'000; ++step) {
    now_ += 1 + rng.uniform(50);
    const std::size_t near = rng.chance(0.7) ? hot[rng.uniform(hot.size())]
                                             : rng.uniform(region);
    // Spans start up to 70 bytes before a hot byte and reach up to 200
    // bytes, so many cross one or more 64-byte words.
    const std::size_t start = near - std::min<std::size_t>(near, rng.uniform(70));
    const std::size_t len = 1 + rng.uniform(200);
    const std::uint64_t op = rng.uniform(100);
    if (op < 25) {
      inject(rng.chance(0.8) ? near : rng.uniform(region));
    } else if (op < 50) {
      db_->note_write(start, len);  // clamps at the region end
    } else if (op < 80) {
      oracle_.on_client_read(1, start, len);
      reference.on_client_read(1, start, len);
    } else if (op < 99) {
      find(start, len);
    } else {
      db_->reload_all_from_disk();  // one write over the whole region
    }
    if (step % 16 == 0) {
      expect_same_records(oracle_, reference, step);
    }
  }
  expect_same_records(oracle_, reference, 8'000);
  // The sequence reached every fate.
  const auto summary = oracle_.summary();
  EXPECT_GT(summary.escaped, 0u);
  EXPECT_GT(summary.caught, 0u);
  EXPECT_GT(summary.overwritten, 0u);
  db_->set_observer(nullptr);
}

TEST(DbInjector, FlipsBitsAtConfiguredRate) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  auto db = db::make_controller_database();
  CorruptionOracle oracle(*db, [&scheduler]() { return scheduler.now(); });

  DbInjectorConfig config;
  config.inter_arrival = 2 * static_cast<sim::Duration>(sim::kSecond);
  config.arrival = ArrivalModel::Fixed;
  auto injector =
      std::make_shared<DbErrorInjector>(*db, oracle, common::Rng(1), config);
  node.spawn("injector", injector);
  scheduler.run_until(21 * sim::kSecond);

  // First flip lands at a random phase within [0, 2s); then one every 2s:
  // 10 or 11 flips by t=21s.
  EXPECT_GE(injector->injected(), 10u);
  EXPECT_LE(injector->injected(), 11u);
  EXPECT_EQ(oracle.records().size(), injector->injected());
  // Every injection actually diverged the region from pristine.
  std::size_t diverged = 0;
  for (std::size_t i = 0; i < db->region().size(); ++i) {
    if (db->region()[i] != db->pristine()[i]) {
      ++diverged;
    }
  }
  EXPECT_GE(diverged, 8u);  // collisions possible but rare
}

TEST(DbInjector, ProportionalDistributionFollowsAccessCounts) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  db::Database db(db::make_bench_schema({.scale = 4}));
  CorruptionOracle oracle(db, [&scheduler]() { return scheduler.now(); });
  // Table 0 heavily accessed, others idle.
  db.table_stats(0).writes = 100'000;

  DbInjectorConfig config;
  config.inter_arrival = sim::kSecond / 100;
  config.distribution = ErrorDistribution::ProportionalToAccess;
  auto injector =
      std::make_shared<DbErrorInjector>(db, oracle, common::Rng(3), config);
  node.spawn("injector", injector);
  scheduler.run_until(5 * sim::kSecond);

  std::size_t in_table0 = 0;
  for (const auto& record : oracle.records()) {
    const auto loc = db.layout().locate(record.offset);
    if (loc && loc->table == 0) {
      ++in_table0;
    }
  }
  EXPECT_GT(in_table0, oracle.records().size() * 9 / 10);
}

TEST(DbInjector, BurstyModelClustersErrorsInSpaceAndTime) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  auto db = db::make_controller_database();
  CorruptionOracle oracle(*db, [&scheduler]() { return scheduler.now(); });

  DbInjectorConfig config;
  config.inter_arrival = 2 * static_cast<sim::Duration>(sim::kSecond);
  config.arrival = ArrivalModel::Bursty;
  config.burst_size = 5;
  config.burst_radius = 32;
  auto injector =
      std::make_shared<DbErrorInjector>(*db, oracle, common::Rng(11), config);
  node.spawn("injector", injector);
  scheduler.run_until(400 * sim::kSecond);

  const auto& records = oracle.records();
  ASSERT_GT(records.size(), 30u);

  // Long-run rate roughly matches one error per inter_arrival.
  const double rate = static_cast<double>(records.size()) / 400.0;
  EXPECT_GT(rate, 0.25);
  EXPECT_LT(rate, 1.0);

  // Spatial clustering: consecutive same-burst errors land close together
  // far more often than uniform flips would (region is ~12 KB wide).
  std::size_t close_pairs = 0;
  for (std::size_t i = 1; i < records.size(); ++i) {
    const auto a = records[i - 1].offset;
    const auto b = records[i].offset;
    if ((a > b ? a - b : b - a) <= 2 * config.burst_radius) {
      ++close_pairs;
    }
  }
  EXPECT_GT(close_pairs, records.size() / 3);
}

TEST(Outcome, ClassificationPrecedence) {
  RunEvents events;
  events.activated = false;
  EXPECT_EQ(classify(events), Outcome::NotActivated);

  events.activated = true;
  events.all_threads_succeeded = true;
  EXPECT_EQ(classify(events), Outcome::NotManifested);

  events.all_threads_succeeded = false;
  EXPECT_EQ(classify(events), Outcome::ClientHang);

  // Earliest event wins.
  events.crash = 100;
  EXPECT_EQ(classify(events), Outcome::SystemDetection);
  events.first_pecos = 50;
  EXPECT_EQ(classify(events), Outcome::PecosDetection);
  events.first_audit = 25;
  EXPECT_EQ(classify(events), Outcome::AuditDetection);
  events.first_fsv = 10;
  EXPECT_EQ(classify(events), Outcome::FailSilenceViolation);

  // Tie at the same instant: PECOS ("prior to any other technique").
  RunEvents tie;
  tie.activated = true;
  tie.first_pecos = 100;
  tie.crash = 100;
  EXPECT_EQ(classify(tie), Outcome::PecosDetection);
}

class ClientInjectorTest : public ::testing::Test {
 protected:
  ClientInjectorTest()
      : db_(db::make_controller_database()),
        api_(*db_, []() { return sim::Time{0}; }) {
    api_.init(1);
    callproc::VmProgramParams params;
    params.ids = db::resolve_controller_ids(db_->schema());
    params.num_subscribers = 64;
    params.calls_per_thread = 1;
    program_ = callproc::build_call_program(params);
  }

  std::unique_ptr<db::Database> db_;
  db::DbApi api_;
  vm::Program program_;
  sim::Scheduler scheduler_;
};

TEST_F(ClientInjectorTest, DirectedTargetsAreAlwaysCfis) {
  vm::VmProcess process(program_, api_, common::Rng(1), {});
  const vm::Cfg cfg = vm::Cfg::analyze(program_);
  for (int i = 0; i < 50; ++i) {
    ClientInjectorConfig config;
    config.target = InjectTarget::DirectedCFI;
    ClientErrorInjector injector(process, scheduler_, common::Rng(100u + static_cast<std::uint64_t>(i)), config);
    injector.arm();
    EXPECT_NE(cfg.cfi_at(injector.target_pc()), nullptr)
        << "pc " << injector.target_pc();
  }
}

TEST_F(ClientInjectorTest, DataModelsFlipTheRightBits) {
  for (int i = 0; i < 30; ++i) {
    vm::VmProcess process(program_, api_, common::Rng(1), {});
    ClientInjectorConfig config;
    config.model = i % 2 == 0 ? ErrorModel::DATAIF : ErrorModel::DATAOF;
    ClientErrorInjector injector(process, scheduler_, common::Rng(200u + static_cast<std::uint64_t>(i)), config);
    injector.arm();
    const std::uint32_t pc = injector.target_pc();
    const std::uint64_t before = process.live_text()[pc];

    // Drive the thread to the breakpoint by forcing its pc there.
    process.spawn_thread(pc == 0 ? 0 : pc);
    process.run_quantum(0, 0);
    ASSERT_TRUE(injector.planted());
    const std::uint64_t flipped = before ^ process.live_text()[pc];
    if (flipped == 0) {
      continue;  // already restored within the quantum (possible)
    }
    if (config.model == ErrorModel::DATAIF) {
      EXPECT_EQ(flipped & ~0xFFull, 0u) << "DATAIF must stay in the opcode byte";
    } else {
      EXPECT_EQ(flipped & 0xFFull, 0u) << "DATAOF must not touch the opcode byte";
    }
    EXPECT_EQ(std::popcount(flipped), 1);
  }
}

TEST_F(ClientInjectorTest, RestoreBringsPristineTextBack) {
  vm::VmProcess process(program_, api_, common::Rng(1), {});
  ClientInjectorConfig config;
  config.model = ErrorModel::DATAInF;
  ClientErrorInjector injector(process, scheduler_, common::Rng(5), config);
  injector.arm();

  process.spawn_thread(injector.target_pc());
  process.run_quantum(0, 0);
  ASSERT_TRUE(injector.planted());
  EXPECT_TRUE(injector.activated());

  scheduler_.run_until(static_cast<sim::Time>(ClientErrorInjector::kErrorWindow) + 1'000);
  EXPECT_EQ(process.live_text()[injector.target_pc()],
            process.pristine().text[injector.target_pc()]);
}

TEST_F(ClientInjectorTest, MultipleThreadsCanActivateOneInjection) {
  // §6.1.2: "if an error is injected into even a single instruction, it is
  // possible that another thread may execute the same erroneous
  // instruction" — threads share the text segment and the error window
  // outlasts the triggering thread's first execution.
  ClientInjectorConfig config;
  config.model = ErrorModel::DATAOF;
  vm::VmProcess fresh(program_, api_, common::Rng(1), {});
  for (int t = 0; t < 8; ++t) {
    fresh.spawn_thread(program_.entry);
  }
  ClientErrorInjector hot(fresh, scheduler_, common::Rng(3), config);
  hot.arm();
  // Run all threads round-robin within the window; re-run until the
  // breakpoint pc gets planted, then give other threads quanta.
  sim::Time now = 0;
  for (int round = 0; round < 50; ++round) {
    for (std::uint32_t t = 0; t < fresh.thread_count(); ++t) {
      if (fresh.thread(t).state() == vm::ThreadState::Runnable ||
          (fresh.thread(t).state() == vm::ThreadState::Sleeping &&
           fresh.thread(t).wake_time() <= now)) {
        fresh.run_quantum(t, now);
      }
    }
    now += 1000;
    scheduler_.run_until(now);
  }
  if (hot.activated()) {
    // When the planted instruction sits on a path all threads take, the
    // window usually sees several activations.
    EXPECT_GE(hot.activations(), 1u);
  }
}

TEST_F(ClientInjectorTest, RestoredTextRunsCleanForLaterThreads) {
  vm::VmProcess process(program_, api_, common::Rng(1), {});
  ClientInjectorConfig config;
  config.model = ErrorModel::DATAInF;
  ClientErrorInjector injector(process, scheduler_, common::Rng(5), config);
  injector.arm();
  const std::uint32_t pc = injector.target_pc();

  process.spawn_thread(pc == 0 ? 0 : pc);
  process.run_quantum(0, 0);
  // Restore fires at the end of the error window.
  scheduler_.run_until(static_cast<sim::Time>(ClientErrorInjector::kErrorWindow) + 1'000);

  // The text is pristine again: a thread spawned now executes the original
  // instruction stream.
  EXPECT_TRUE(std::equal(process.live_text().begin(), process.live_text().end(),
                         process.pristine().text.begin()));
}

TEST_F(ClientInjectorTest, UnreachedBreakpointNeverActivates) {
  vm::VmProcess process(program_, api_, common::Rng(1), {});
  ClientInjectorConfig config;
  ClientErrorInjector injector(process, scheduler_, common::Rng(6), config);
  injector.arm();
  EXPECT_FALSE(injector.planted());
  EXPECT_FALSE(injector.activated());
}

}  // namespace
}  // namespace wtc::inject
