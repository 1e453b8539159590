// MiniVM harness: mutated instruction words through decode/encode and a
// monitored interpreter run, with CF attestation slices draining the log.
//
// Input grammar:
//   byte 0        — monitor selector: even = preemptive PECOS, odd =
//                   deferred PostCheck (the race-prone baseline);
//   bytes 1..     — (index, word) overlay groups, 9 bytes each: one byte
//                   picks the text position (mod text size), eight bytes
//                   little-endian form the raw instruction word written
//                   there. At most 16 overlays apply.
//
// Invariants:
//   * decode/encode is a bijection on whatever 64-bit word the fuzzer
//     invents, and disassembly of any word is crash-free;
//   * an unmutated run halts normally with zero monitor violations and
//     zero attestation violations (no false positives);
//   * a thread that trapped with PecosViolation has a recorded monitor
//     violation (the trap never fires spuriously);
//   * attestation violations occur only for mutated text, are reported
//     exactly once each through the violation callback, and their
//     detection latency is bounded by one slice period;
//   * the CF log never drops a transition (overflow forces early slices),
//     so mutation-induced transition bursts cannot evade attestation.
//
// Everything else — arbitrary traps, infinite loops (bounded by the
// quantum budget), failed DB ops — is legal behaviour for corrupted code;
// the harness only requires that the process dies by trap, halts, sleeps,
// or runs out of budget without UB, which ASan/UBSan enforce.
#include "fuzz/harness.hpp"

#include <memory>

#include "audit/cf_attest.hpp"
#include "audit/process.hpp"
#include "audit/report.hpp"
#include "common/rng.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "pecos/cf_log.hpp"
#include "pecos/monitor.hpp"
#include "pecos/plan.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"
#include "vm/builder.hpp"
#include "vm/interp.hpp"
#include "vm/program.hpp"

namespace wtc::fuzz {
namespace {

class NullSink final : public audit::ReportSink {
 public:
  void on_finding(const audit::Finding&) override {}
};

constexpr sim::Duration kSlicePeriod =
    10 * static_cast<sim::Duration>(sim::kMillisecond);

}  // namespace

vm::Program harness_program(const db::ControllerIds& ids) {
  // Call-processing in miniature: a transaction allocating, writing,
  // reading, moving, and freeing a call record, then a counted loop with
  // direct and indirect calls — every CFI kind the PECOS plan instruments,
  // plus every DB opcode, so mutations can land anywhere interesting.
  vm::ProgramBuilder b;
  b.loadi(1, static_cast<std::int32_t>(ids.process))
      .loadi(2, static_cast<std::int32_t>(db::kGroupActiveCalls))
      .db_txn_begin(1)
      .db_alloc(3, 1, 2)
      .loadi(4, 7)
      .db_write_fld(4, 1, 3, static_cast<std::int32_t>(ids.p_status))
      .db_read_fld(5, 1, 3, static_cast<std::int32_t>(ids.p_status))
      .db_move(1, 3, static_cast<std::int32_t>(db::kGroupStableCalls))
      .db_free(1, 3)
      .db_txn_end(1)
      .loadi(6, 0)
      .loadi(7, 3)
      .label("loop")
      .bge(6, 7, "end")
      .addi(6, 6, 1)
      .call("helper")
      .jmp("loop")
      .label("end")
      .load_label(8, "helper")
      .icall(8)
      .halt();
  b.label("helper").nop().ret();
  b.pad(4);
  return std::move(b).build();
}

std::size_t overlay_minivm_text(std::vector<std::uint64_t>& text,
                                const std::uint8_t* data, std::size_t size) {
  std::size_t mutations = 0;
  for (std::size_t i = 1; i + 9 <= size && mutations < 16; i += 9) {
    const std::size_t at = data[i] % text.size();
    std::uint64_t word = 0;
    for (unsigned b = 0; b < 8; ++b) {
      word |= static_cast<std::uint64_t>(data[i + 1 + b]) << (8 * b);
    }
    text[at] = word;
    ++mutations;
  }
  return mutations;
}

int fuzz_minivm(const std::uint8_t* data, std::size_t size) {
  sim::Scheduler scheduler;
  sim::Node node(scheduler);
  sim::Cpu cpu;
  auto db = db::make_controller_database(harness_schema_params());
  const db::ControllerIds ids = db::resolve_controller_ids(db->schema());
  db::DbApi api(*db, [&scheduler]() { return scheduler.now(); });
  api.init(1);

  const vm::Program program = harness_program(ids);
  const pecos::Plan plan = pecos::Plan::instrument(program);
  pecos::CfLog log(64);

  NullSink sink;
  audit::AuditProcessConfig audit_cfg;
  audit_cfg.periodic_enabled = false;
  audit_cfg.progress_indicator = false;
  auto audit =
      std::make_shared<audit::AuditProcess>(*db, cpu, audit_cfg, &sink, nullptr);
  std::uint64_t reported = 0;
  audit::CfAttestConfig attest_cfg;
  attest_cfg.slice_period = kSlicePeriod;
  auto element_owned = std::make_unique<audit::CfAttestElement>(
      log, plan, attest_cfg, []() { return sim::ProcessId{1}; },
      [&reported](const audit::CfViolation&) { ++reported; });
  auto* element = element_owned.get();
  audit->add_element(std::move(element_owned));
  node.spawn("audit", audit);
  // Process the spawn event NOW: on_start installs the CF-log overflow
  // handler (the no-drop early-slice policy) and arms the slice timer.
  // Skipping this would let a mutation-induced transition burst overflow
  // the ring before the handler exists — and silently drop entries.
  scheduler.run_until(1);

  const bool deferred = size > 0 && (data[0] & 1u) != 0;
  pecos::PecosMonitor preemptive(plan);
  pecos::PostCheckMonitor postcheck(plan);
  vm::ExecMonitor* monitor = nullptr;
  const pecos::MonitorStats* stats = nullptr;
  if (deferred) {
    postcheck.set_cf_log(&log);
    monitor = &postcheck;
    stats = &postcheck.stats();
  } else {
    preemptive.set_cf_log(&log);
    monitor = &preemptive;
    stats = &preemptive.stats();
  }

  vm::VmProcess process(program, api, common::Rng(1), {});
  process.set_monitor(monitor);
  process.spawn_thread(0);

  auto& text = process.live_text();
  const std::size_t mutations = overlay_minivm_text(text, data, size);
  for (const std::uint64_t word : text) {
    require(vm::encode(vm::decode(word)) == word,
            "decode/encode roundtrip is lossless");
    (void)vm::disassemble(word);
  }

  for (int quantum = 0; quantum < 4000; ++quantum) {
    const vm::ThreadState state = process.thread(0).state();
    if (state != vm::ThreadState::Runnable &&
        state != vm::ThreadState::Sleeping) {
      break;
    }
    process.run_quantum(0, scheduler.now());
  }

  // Drain every outstanding attestation slice.
  scheduler.run_until(scheduler.now() + 10 * kSlicePeriod);

  const vm::VmThread& thread = process.thread(0);
  if (mutations == 0) {
    require(thread.state() == vm::ThreadState::Halted,
            "pristine program halts normally");
    require(stats->violations == 0, "no preemptive false positives");
    require(element->violations() == 0, "no attestation false positives");
  }
  if (thread.state() == vm::ThreadState::Trapped &&
      thread.trap() == vm::Trap::PecosViolation) {
    require(stats->violations >= 1,
            "a PecosViolation trap implies a recorded monitor violation");
  }
  require(reported == element->violations(),
          "every attestation violation reported exactly once");
  require(log.dropped() == 0,
          "CF log never drops (overflow forces early slices)");
  if (element->violations() > 0) {
    require(mutations > 0, "attestation violations only for mutated text");
    require(element->max_detection_latency_us() <=
                static_cast<std::uint64_t>(kSlicePeriod),
            "attestation detection latency bounded by one slice period");
  }
  return 0;
}

}  // namespace wtc::fuzz
