// Active control-flow attestation and guaranteed healing (PECOS -> ACFA):
// the CF log's no-drop overflow policy, the attestation element's deferred
// detection (including the PostCheck race the preemptive monitor wins),
// the healer's restore/replay/restart sequence with its idempotence and
// escalation guarantees, and the quarantine cooldown re-enable.
#include <gtest/gtest.h>

#include <stdexcept>

#include "audit/cf_attest.hpp"
#include "audit/process.hpp"
#include "common/rng.hpp"
#include "db/controller_schema.hpp"
#include "db/direct.hpp"
#include "db/layout.hpp"
#include "db/op_log.hpp"
#include "experiments/pecos_runner.hpp"
#include "manager/healer.hpp"
#include "pecos/cf_log.hpp"
#include "pecos/monitor.hpp"
#include "pecos/plan.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "vm/builder.hpp"
#include "vm/interp.hpp"

namespace wtc {
namespace {

class CollectingSink : public audit::ReportSink {
 public:
  void on_finding(const audit::Finding& finding) override {
    findings.push_back(finding);
  }
  std::vector<audit::Finding> findings;
};

// --- CF log: bounded, never drops ----------------------------------------

TEST(CfLog, OverflowForcesEarlySliceInsteadOfDropping) {
  pecos::CfLog log(4);
  std::vector<pecos::CfTransition> drained;
  log.set_overflow_handler(
      [&](std::uint32_t thread) { log.drain(thread, drained); });
  for (std::uint32_t i = 0; i < 10; ++i) {
    log.record({0, i, i + 1, i, false});
  }
  log.drain(0, drained);
  ASSERT_EQ(drained.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(drained[i].from_pc, i);  // FIFO, nothing lost or reordered
  }
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_GE(log.overflow_slices(), 1u);
  EXPECT_EQ(log.recorded(), 10u);
}

TEST(CfLog, WithoutHandlerEvictsOldestAndCountsTheLoss) {
  pecos::CfLog log(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    log.record({0, i, i + 1, i, false});
  }
  std::vector<pecos::CfTransition> drained;
  log.drain(0, drained);
  ASSERT_EQ(drained.size(), 4u);
  EXPECT_EQ(drained.front().from_pc, 6u);  // oldest six evicted
  EXPECT_EQ(log.dropped(), 6u);
}

TEST(CfLog, RingsArePerThread) {
  pecos::CfLog log(4);
  log.record({0, 1, 2, 0, false});
  log.record({3, 7, 8, 0, false});
  EXPECT_EQ(log.size(0), 1u);
  EXPECT_EQ(log.size(3), 1u);
  EXPECT_EQ(log.size(1), 0u);
  log.clear_thread(3);
  EXPECT_EQ(log.size(3), 0u);
}

// --- attestation element --------------------------------------------------

vm::Program sample_program() {
  vm::ProgramBuilder b;
  b.loadi(1, 0)                  // 0
      .loadi(2, 3)               // 1
      .label("loop")             // 2
      .bge(1, 2, "end")          // 2: branch
      .addi(1, 1, 1)             // 3
      .call("helper")            // 4: call
      .jmp("loop")               // 5: jump
      .label("end")
      .load_label(8, "helper")   // 6
      .icall(8)                  // 7: indirect call
      .halt();                   // 8
  b.label("helper").nop().ret();  // 9, 10: ret
  return std::move(b).build();
}

/// Attestation harness: a minimal audit process hosting only the
/// CfAttestElement, plus a MiniVM thread whose monitor streams into the
/// element's CF log.
class AttestTest : public ::testing::Test {
 protected:
  AttestTest()
      : node_(scheduler_),
        db_(db::make_controller_database()),
        api_(*db_, [this]() { return scheduler_.now(); }),
        log_(64) {
    api_.init(1);
  }

  audit::CfAttestElement* spawn_audit(const pecos::Plan& plan,
                                      sim::Duration slice_period) {
    audit::AuditProcessConfig config;
    config.periodic_enabled = false;
    config.progress_indicator = false;
    audit_ = std::make_shared<audit::AuditProcess>(*db_, cpu_, config, &sink_,
                                                   nullptr);
    audit::CfAttestConfig attest_cfg;
    attest_cfg.slice_period = slice_period;
    auto element = std::make_unique<audit::CfAttestElement>(
        log_, plan, attest_cfg, []() { return sim::ProcessId{42}; },
        [this](const audit::CfViolation& v) { violations_.push_back(v); });
    auto* raw = element.get();
    audit_->add_element(std::move(element));
    node_.spawn("audit", audit_);
    return raw;
  }

  /// Runs thread 0 until terminal (bounded); quanta run at sim time 0, so
  /// every logged transition is stamped t=0 and the first slice drains all.
  vm::ThreadState run(vm::VmProcess& process) {
    for (int i = 0; i < 10'000; ++i) {
      const auto state = process.thread(0).state();
      if (state != vm::ThreadState::Runnable &&
          state != vm::ThreadState::Sleeping) {
        return state;
      }
      process.run_quantum(0, scheduler_.now());
    }
    return process.thread(0).state();
  }

  sim::Scheduler scheduler_;
  sim::Node node_;
  sim::Cpu cpu_;
  std::unique_ptr<db::Database> db_;
  db::DbApi api_;
  CollectingSink sink_;
  std::shared_ptr<audit::AuditProcess> audit_;
  pecos::CfLog log_;
  std::vector<audit::CfViolation> violations_;
};

TEST_F(AttestTest, CleanRunAttestsEverythingWithoutViolations) {
  const vm::Program program = sample_program();
  const pecos::Plan plan = pecos::Plan::instrument(program);
  auto* element =
      spawn_audit(plan, static_cast<sim::Duration>(10 * sim::kMillisecond));

  pecos::PecosMonitor monitor(plan);
  monitor.set_cf_log(&log_);
  vm::VmProcess process(program, api_, common::Rng(1), {});
  process.set_monitor(&monitor);
  process.spawn_thread(0);
  EXPECT_EQ(run(process), vm::ThreadState::Halted);

  scheduler_.run_until(50 * sim::kMillisecond);
  EXPECT_GT(element->transitions_attested(), 5u);
  EXPECT_EQ(element->violations(), 0u);
  EXPECT_TRUE(violations_.empty());
  EXPECT_GE(element->slices(), 1u);
}

TEST_F(AttestTest, PostCheckRaceCrashEscapesPreemptionButNotAttestation) {
  // A jump corrupted out of bounds: the deferred (PostCheck) monitor loses
  // the race — the OS bounds check crashes the thread before the deferred
  // check fires. The transfer was logged, though, so the attestation slice
  // still detects it, within one slice period.
  const vm::Program pristine = sample_program();
  const pecos::Plan plan = pecos::Plan::instrument(pristine);
  const auto slice = static_cast<sim::Duration>(10 * sim::kMillisecond);
  auto* element = spawn_audit(plan, slice);

  pecos::PostCheckMonitor monitor(plan);
  monitor.set_cf_log(&log_);
  vm::VmProcess process(pristine, api_, common::Rng(1), {});
  process.set_monitor(&monitor);
  process.spawn_thread(0);
  vm::Instr jump = vm::decode(process.live_text()[5]);
  ASSERT_EQ(jump.op, vm::Opcode::Jmp);
  jump.imm = 100'000;
  process.live_text()[5] = vm::encode(jump);

  EXPECT_EQ(run(process), vm::ThreadState::Trapped);
  EXPECT_EQ(process.thread(0).trap(), vm::Trap::PcOutOfBounds);  // the race

  scheduler_.run_until(5 * static_cast<sim::Time>(slice));
  ASSERT_EQ(element->violations(), 1u);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].thread, 0u);
  EXPECT_EQ(violations_[0].from_pc, 5u);
  EXPECT_EQ(violations_[0].to_pc, 100'000u);
  EXPECT_EQ(violations_[0].source, audit::CfSource::Attestation);
  // Bounded detection latency: at most one slice period.
  EXPECT_LE(element->max_detection_latency_us(),
            static_cast<std::uint64_t>(slice));
  // And the same corruption under the preemptive monitor never escapes.
  pecos::PecosMonitor preemptive(plan);
  vm::VmProcess process2(pristine, api_, common::Rng(1), {});
  process2.set_monitor(&preemptive);
  process2.spawn_thread(0);
  process2.live_text()[5] = vm::encode(jump);
  EXPECT_EQ(run(process2), vm::ThreadState::Trapped);
  EXPECT_EQ(process2.thread(0).trap(), vm::Trap::PecosViolation);
}

TEST_F(AttestTest, FlagsTransferWhosePristineSiteIsNotACfi) {
  // Feed the log a transfer claiming to originate from a non-CFI pc: an
  // instruction corrupted INTO a jump. No assertion block exists there, so
  // only the attestation path can flag it.
  const vm::Program program = sample_program();
  const pecos::Plan plan = pecos::Plan::instrument(program);
  auto* element =
      spawn_audit(plan, static_cast<sim::Duration>(10 * sim::kMillisecond));

  log_.note_thread_start(0, 0, 0);
  log_.record({0, 0, 9, 0, false});  // pc 0 is a loadi in the pristine text
  scheduler_.run_until(50 * sim::kMillisecond);
  EXPECT_EQ(element->violations(), 1u);
  ASSERT_EQ(violations_.size(), 1u);
  EXPECT_EQ(violations_[0].from_pc, 0u);
}

// --- healer ----------------------------------------------------------------

class FakeHealable : public audit::HealableClient {
 public:
  void heal_terminate_thread(std::uint32_t thread_id) override {
    terminated.push_back(thread_id);
  }
  void heal_restart_thread(std::uint32_t thread_id) override {
    restarted.push_back(thread_id);
  }
  std::vector<std::uint32_t> terminated;
  std::vector<std::uint32_t> restarted;
};

class FakeControl : public audit::ClientControl {
 public:
  void terminate_client_thread(sim::ProcessId, std::uint32_t) override {}
  void kill_client_process(sim::ProcessId client) override {
    killed.push_back(client);
  }
  std::vector<sim::ProcessId> killed;
};

class HealerTest : public ::testing::Test {
 protected:
  HealerTest()
      : db_(db::make_controller_database()),
        ids_(db::resolve_controller_ids(db_->schema())),
        api_(*db_, [this]() { return now_; }) {
    api_.init(1);
    api_.set_audit_hooks(&op_log_);
  }

  manager::CfHealer make_healer() {
    return manager::CfHealer(*db_, op_log_, cf_log_, client_, &control_,
                             &sink_, [this]() { return now_; });
  }

  std::unique_ptr<db::Database> db_;
  db::ControllerIds ids_;
  db::ThreadOpLog op_log_;
  pecos::CfLog cf_log_;
  db::DbApi api_;
  FakeHealable client_;
  FakeControl control_;
  CollectingSink sink_;
  sim::Time now_ = 0;
};

TEST_F(HealerTest, RestoresReplaysReleasesAndRestarts) {
  // Thread 1 allocates a call record and writes it; thread 2 allocates its
  // own. Then thread 1's control flow goes bad and its record's field is
  // corrupted mid-quantum.
  api_.set_thread_id(1);
  now_ = 10;
  db::RecordIndex r1 = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, db::kGroupActiveCalls, r1),
            db::Status::Ok);
  ASSERT_EQ(api_.write_fld(ids_.process, r1, ids_.p_process_id, db::key_of(r1)),
            db::Status::Ok);
  api_.set_thread_id(2);
  now_ = 12;
  db::RecordIndex r2 = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, db::kGroupActiveCalls, r2),
            db::Status::Ok);
  ASSERT_NE(r1, r2);

  // Corruption lands in thread 1's record (the suspect quantum).
  now_ = 20;
  db::direct::write_field(*db_, ids_.process, r1, ids_.p_status, -777);

  auto healer = make_healer();
  audit::CfViolation violation;
  violation.client = 1;
  violation.thread = 1;
  violation.from_pc = 5;
  violation.to_pc = 9;
  violation.time = 20;
  violation.source = audit::CfSource::Preemptive;
  now_ = 21;
  EXPECT_TRUE(healer.heal(violation));

  // Thread surgery ran, in order.
  ASSERT_EQ(client_.terminated, std::vector<std::uint32_t>{1u});
  ASSERT_EQ(client_.restarted, std::vector<std::uint32_t>{1u});
  // The trusted op tail (alloc + write, both before t=20) was replayed.
  EXPECT_GE(healer.replayed_ops(), 2u);
  EXPECT_GE(healer.restored_records(), 1u);
  // Thread 1 restarts from scratch, so its held record was released; the
  // corrupted field went back to the catalog default with it.
  const auto h1 = db::direct::read_header(*db_, ids_.process, r1);
  EXPECT_EQ(h1.status, db::kStatusFree);
  EXPECT_EQ(h1.id_tag, db::expected_id_tag(ids_.process, r1));
  EXPECT_NE(db::direct::read_field(*db_, ids_.process, r1, ids_.p_status),
            -777);
  // Thread 2's record was not collateral damage.
  EXPECT_EQ(db::direct::read_header(*db_, ids_.process, r2).status,
            db::kStatusActive);
  // The healed thread's logs restart empty.
  EXPECT_TRUE(op_log_.ops(1).empty());
  // The heal was reported.
  bool reported = false;
  for (const auto& finding : sink_.findings) {
    reported |= finding.technique == audit::Technique::CfAttestation &&
                finding.recovery == audit::Recovery::HealThread;
  }
  EXPECT_TRUE(reported);
}

TEST_F(HealerTest, ReplaysFreeMoveAndWriteRecOps) {
  // Thread 1's trusted tail, all before the violation: one connection
  // record runs a whole lifecycle (Alloc -> Move -> WriteRec -> Free) and
  // one resource record is allocated and written but still held.
  api_.set_thread_id(1);
  const auto values_for = [this](db::TableId t, std::int32_t base) {
    std::vector<std::int32_t> values(db_->schema().tables[t].fields.size());
    for (std::size_t f = 0; f < values.size(); ++f) {
      values[f] = base + static_cast<std::int32_t>(f);
    }
    return values;
  };
  now_ = 10;
  db::RecordIndex c = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.connection, db::kGroupActiveCalls, c),
            db::Status::Ok);
  now_ = 11;
  ASSERT_EQ(api_.move_rec(ids_.connection, c, db::kGroupStableCalls),
            db::Status::Ok);
  now_ = 12;
  ASSERT_EQ(api_.write_rec(ids_.connection, c, values_for(ids_.connection, 100)),
            db::Status::Ok);
  now_ = 13;
  ASSERT_EQ(api_.free_rec(ids_.connection, c), db::Status::Ok);
  now_ = 14;
  db::RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.resource, db::kGroupActiveCalls, r),
            db::Status::Ok);
  now_ = 15;
  ASSERT_EQ(api_.write_rec(ids_.resource, r, values_for(ids_.resource, 200)),
            db::Status::Ok);
  // An entry no mutating op made (a forged TxnBegin) replays as nothing.
  db::ApiEvent forged;
  forged.op = db::ApiOp::TxnBegin;
  forged.is_update = true;
  forged.thread = 1;
  forged.table = ids_.resource;
  forged.record = r;
  forged.time = 16;
  op_log_.on_api_event(forged);
  ASSERT_EQ(op_log_.ops(1).size(), 7u);

  // The bad transfer corrupts both records' fields.
  now_ = 20;
  db::direct::write_field(*db_, ids_.connection, c, 1, -777);
  db::direct::write_field(*db_, ids_.resource, r, 1, -777);

  auto healer = make_healer();
  audit::CfViolation violation;
  violation.client = 1;
  violation.thread = 1;
  violation.time = 20;
  violation.source = audit::CfSource::Attestation;
  now_ = 21;
  ASSERT_TRUE(healer.heal(violation));

  // Every mutating op of the tail was replayed over the restored records.
  EXPECT_EQ(healer.replayed_ops(), 6u);
  EXPECT_EQ(healer.restored_records(), 2u);
  // Both records end free with clean headers and their catalog defaults:
  // the connection through its replayed Free (which scrubs the fields the
  // replayed WriteRec set, as DBfree_rec does), the resource because the
  // restarted thread no longer holds it.
  for (const auto& [t, rec] :
       {std::pair{ids_.connection, c}, std::pair{ids_.resource, r}}) {
    const auto header = db::direct::read_header(*db_, t, rec);
    EXPECT_EQ(header.status, db::kStatusFree) << "table " << t;
    EXPECT_EQ(header.group, 0u) << "table " << t;
    EXPECT_EQ(header.id_tag, db::expected_id_tag(t, rec)) << "table " << t;
    const auto& fields = db_->schema().tables[t].fields;
    for (db::FieldId f = 0; f < fields.size(); ++f) {
      EXPECT_EQ(db::direct::read_field(*db_, t, rec, f), fields[f].default_value)
          << "table " << t << " field " << f;
    }
  }
  EXPECT_EQ(client_.restarted, std::vector<std::uint32_t>{1u});
}

TEST_F(HealerTest, DoubleReportOfSameViolationHealsOnce) {
  api_.set_thread_id(1);
  now_ = 10;
  db::RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, db::kGroupActiveCalls, r),
            db::Status::Ok);

  auto healer = make_healer();
  audit::CfViolation violation;
  violation.client = 1;
  violation.thread = 1;
  violation.time = 15;
  violation.source = audit::CfSource::Preemptive;
  now_ = 16;
  EXPECT_TRUE(healer.heal(violation));
  // The attestation slice re-reports the same transfer a period later.
  violation.source = audit::CfSource::Attestation;
  now_ = 30;
  EXPECT_TRUE(healer.heal(violation));
  EXPECT_EQ(healer.heals(), 1u);
  EXPECT_EQ(healer.skipped(), 1u);
  EXPECT_EQ(client_.terminated.size(), 1u);
  EXPECT_EQ(client_.restarted.size(), 1u);
  // A genuinely new violation after the heal is healed again.
  violation.time = 40;
  now_ = 41;
  EXPECT_TRUE(healer.heal(violation));
  EXPECT_EQ(healer.heals(), 2u);
}

TEST_F(HealerTest, SecondFaultMidHealEscalatesCleanly) {
  api_.set_thread_id(1);
  now_ = 10;
  db::RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, db::kGroupActiveCalls, r),
            db::Status::Ok);

  auto healer = make_healer();
  healer.set_fault_hook([](std::uint32_t hook_stage) {
    if (hook_stage == 3) {
      throw std::runtime_error("replay fault");
    }
  });
  audit::CfViolation violation;
  violation.client = 7;
  violation.thread = 1;
  violation.time = 15;
  now_ = 16;
  EXPECT_FALSE(healer.heal(violation));
  EXPECT_EQ(healer.heals(), 0u);
  EXPECT_EQ(healer.escalations(), 1u);
  // Escalation reached the recovery ladder: the client process was killed
  // and the surrender reported; the thread was never "restarted" into a
  // half-healed database.
  ASSERT_EQ(control_.killed, std::vector<sim::ProcessId>{7});
  EXPECT_TRUE(client_.restarted.empty());
  bool reported = false;
  for (const auto& finding : sink_.findings) {
    reported |= finding.recovery == audit::Recovery::KillClientProcess;
  }
  EXPECT_TRUE(reported);
}

TEST_F(HealerTest, SingleFaultRetriesAndStillHeals) {
  api_.set_thread_id(1);
  now_ = 10;
  db::RecordIndex r = 0;
  ASSERT_EQ(api_.alloc_rec(ids_.process, db::kGroupActiveCalls, r),
            db::Status::Ok);

  auto healer = make_healer();
  int hook_calls = 0;
  healer.set_fault_hook([&hook_calls](std::uint32_t hook_stage) {
    if (hook_stage == 2 && ++hook_calls == 1) {
      throw std::runtime_error("transient restore fault");
    }
  });
  audit::CfViolation violation;
  violation.client = 1;
  violation.thread = 1;
  violation.time = 15;
  now_ = 16;
  EXPECT_TRUE(healer.heal(violation));
  EXPECT_EQ(healer.heals(), 1u);
  EXPECT_EQ(healer.escalations(), 0u);
  EXPECT_EQ(client_.restarted.size(), 1u);
}

// --- quarantine cooldown re-enable (reversible degradation) ----------------

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

TEST(QuarantineReenable, CooldownRestoresElementAfterCleanWindow) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  sim::Cpu cpu;
  auto db = db::make_controller_database();
  CollectingSink sink;

  audit::AuditProcessConfig config;
  config.periodic_enabled = false;
  config.progress_indicator = false;
  auto audit = std::make_shared<audit::AuditProcess>(*db, cpu, config, &sink,
                                                     nullptr);
  audit->add_element(std::make_unique<CrashyElement>());
  const auto audit_pid = node.spawn("audit", audit);

  for (std::uint64_t i = 0; i < audit::kQuarantineMaxFaults; ++i) {
    sim::Message poison;
    poison.type = kPoisonMessage;
    node.send(audit_pid, poison,
              static_cast<sim::Duration>(i * 100 * sim::kMillisecond));
  }
  scheduler.run_until(sim::kSecond / 2);
  EXPECT_TRUE(audit->element_disabled("crashy"));
  EXPECT_EQ(audit->reenabled_count(), 0u);
  EXPECT_EQ(audit->quarantined_count(), 1u);

  // A clean quarantine window later, the element is restored.
  scheduler.run_until(static_cast<sim::Time>(audit::kQuarantineWindow) + sim::kSecond);
  EXPECT_FALSE(audit->element_disabled("crashy"));
  EXPECT_EQ(audit->reenabled_count(), 1u);
  EXPECT_EQ(audit->quarantined_count(), 0u);
  bool reported = false;
  for (const auto& finding : sink.findings) {
    reported |= finding.recovery == audit::Recovery::ReenableElement &&
                finding.technique == audit::Technique::ElementQuarantine;
  }
  EXPECT_TRUE(reported);

  // The restored element is live again (and can re-earn its quarantine).
  sim::Message poison;
  poison.type = kPoisonMessage;
  node.send(audit_pid, poison);
  scheduler.run_until(static_cast<sim::Time>(audit::kQuarantineWindow) +
                      2 * sim::kSecond);
  EXPECT_GE(audit->element_faults(), audit::kQuarantineMaxFaults + 1u);
}

// --- end-to-end: detect, route through the active manager, heal ------------

TEST(HealingEndToEnd, DirectedCfErrorIsDetectedAndHealed) {
  // Directed CFI injection against the PECOS-protected client with
  // attestation + healing on. Probe seeds for one whose error activates
  // and is detected; that run must heal and still complete.
  experiments::PecosRunParams params;
  params.cfc = experiments::CfcMode::Pecos;
  params.audit = false;
  params.cf_attest = true;
  params.heal = true;
  params.threads = 4;
  params.calls_per_thread = 1;
  params.injector.model = inject::ErrorModel::ADDIF;
  params.injector.target = inject::InjectTarget::DirectedCFI;

  bool exercised = false;
  for (std::uint64_t seed = 1; seed <= 30 && !exercised; ++seed) {
    params.seed = seed;
    const auto result = experiments::run_pecos_single(params);
    if (result.pecos_detections == 0 && result.attest_detections == 0) {
      continue;
    }
    exercised = true;
    EXPECT_GE(result.heals, 1u) << "seed " << seed;
    EXPECT_FALSE(result.unhealed_violation) << "seed " << seed;
    EXPECT_EQ(result.heal_escalations, 0u) << "seed " << seed;
  }
  EXPECT_TRUE(exercised) << "no seed in 1..30 exercised a CF detection";
}

TEST(HealingEndToEnd, AttestationLatencyIsBoundedBySlicePeriod) {
  experiments::PecosRunParams params;
  params.cfc = experiments::CfcMode::PostCheck;  // deferred: races happen
  params.audit = false;
  params.cf_attest = true;
  params.threads = 4;
  params.calls_per_thread = 1;
  params.injector.model = inject::ErrorModel::ADDIF;
  params.injector.target = inject::InjectTarget::DirectedCFI;

  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    params.seed = seed;
    const auto result = experiments::run_pecos_single(params);
    if (result.attest_detections > 0) {
      EXPECT_LE(result.max_attest_latency_us,
                static_cast<std::uint64_t>(params.slice_period))
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace wtc
