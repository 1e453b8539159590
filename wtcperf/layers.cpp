#include "layers.hpp"

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "bench_util.hpp"
#include "callproc/vm_program.hpp"
#include "common/rng.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "db/run_op_log.hpp"
#include "experiments/audit_runner.hpp"
#include "experiments/replay_workload.hpp"
#include "inject/oracle.hpp"
#include "pecos/cf_log.hpp"
#include "pecos/monitor.hpp"
#include "pecos/plan.hpp"
#include "sim/scheduler.hpp"
#include "vm/interp.hpp"

namespace wtcperf {

using namespace wtc;

namespace {

/// Repeats `body` until `budget_s` has passed (at least `min_reps` times)
/// and returns the mean wall time of one repetition in ns.
template <typename Body>
double mean_ns(double budget_s, int min_reps, Body&& body) {
  const auto start = Clock::now();
  int reps = 0;
  do {
    body();
    ++reps;
  } while (reps < min_reps || elapsed_s(start) < budget_s);
  return elapsed_ns(start) / reps;
}

/// The audit engine's per-item cost after its cost_scale multiplication
/// (mirrors AuditEngine's constructor).
double scaled(std::uint32_t cost, double scale) {
  return static_cast<double>(
      static_cast<std::uint32_t>(static_cast<double>(cost) * scale));
}

// --- sim ---

double drive_sim(SpanLog& spans) {
  Span span(&spans, "sim.drive");
  constexpr int kEvents = 200000;
  const double ns = mean_ns(0.05, 3, [&]() {
    sim::Scheduler scheduler;
    // A self-rescheduling population of 64 timers: the heap stays at the
    // size a controller run keeps, and every step re-arms one event.
    int remaining = kEvents;
    std::function<void()> tick;
    tick = [&]() {
      if (--remaining > 0) {
        scheduler.schedule_after(1 + static_cast<sim::Time>(remaining % 97), tick);
      }
    };
    for (int i = 0; i < 64; ++i) {
      scheduler.schedule_at(static_cast<sim::Time>(i), tick);
    }
    while (scheduler.step()) {
    }
  });
  return ns / (kEvents + 63);
}

// --- vm / pecos ---

/// Forwards every hook to the wrapped monitor and times it.
class TimedMonitor final : public vm::ExecMonitor {
 public:
  explicit TimedMonitor(vm::ExecMonitor& inner) : inner_(inner) {}
  bool before_execute(const vm::VmThread& thread, std::uint32_t pc,
                      std::uint64_t word) override {
    const auto t0 = Clock::now();
    const bool trap = inner_.before_execute(thread, pc, word);
    ns += elapsed_ns(t0);
    return trap;
  }
  void after_execute(const vm::VmThread& thread, std::uint32_t pc,
                     std::uint64_t word, std::uint32_t next_pc) override {
    const auto t0 = Clock::now();
    inner_.after_execute(thread, pc, word, next_pc);
    ns += elapsed_ns(t0);
  }
  void on_thread_start(std::uint32_t thread_id, std::uint32_t entry) override {
    inner_.on_thread_start(thread_id, entry);
  }
  void on_control_transfer(const vm::VmThread& thread, std::uint32_t from_pc,
                           std::uint64_t word, std::uint32_t to_pc,
                           sim::Time now) override {
    const auto t0 = Clock::now();
    inner_.on_control_transfer(thread, from_pc, word, to_pc, now);
    ns += elapsed_ns(t0);
  }

  double ns = 0.0;

 private:
  vm::ExecMonitor& inner_;
};

struct VmRun {
  std::uint64_t instructions = 0;
  double quantum_ns = 0.0;
};

/// Runs the call-processing program's 16 threads to completion on a fresh
/// controller database, timing only run_quantum.
VmRun run_call_program(const vm::Program& program, vm::ExecMonitor* monitor) {
  auto database = db::make_controller_database();
  sim::Time now = 0;
  db::DbApi api(*database, [&now]() { return now; });
  api.init(1);
  vm::VmProcess vmp(program, api, common::Rng(7));
  vmp.set_monitor(monitor);
  for (int t = 0; t < 16; ++t) {
    vmp.spawn_thread(program.entry);
  }
  VmRun run;
  const auto n = static_cast<std::uint32_t>(vmp.thread_count());
  std::uint32_t cursor = 0;
  for (int quanta = 0; quanta < 200000; ++quanta) {
    std::optional<std::uint32_t> pick;
    sim::Time wake = UINT64_MAX;
    for (std::uint32_t k = 0; k < n && !pick; ++k) {
      const std::uint32_t t = (cursor + k) % n;
      const auto& thread = vmp.thread(t);
      if (thread.state() == vm::ThreadState::Runnable ||
          (thread.state() == vm::ThreadState::Sleeping &&
           thread.wake_time() <= now)) {
        pick = t;
      } else if (thread.state() == vm::ThreadState::Sleeping) {
        wake = std::min(wake, thread.wake_time());
      }
    }
    if (!pick) {
      if (wake == UINT64_MAX) {
        break;  // every thread halted
      }
      now = wake;
      continue;
    }
    cursor = (*pick + 1) % n;
    api.set_thread_id(*pick);
    const auto t0 = Clock::now();
    const vm::QuantumResult result = vmp.run_quantum(*pick, now);
    run.quantum_ns += elapsed_ns(t0);
    run.instructions += result.instructions;
    now += static_cast<sim::Time>(result.time_cost);
  }
  return run;
}

/// Per run of the call program: instructions retired, assertion checks.
struct VmTiming {
  double instructions = 0.0;
  double ns_per_instr = 0.0;
  double checks = 0.0;
  double ns_per_check = 0.0;
};

VmTiming drive_vm(SpanLog& spans) {
  auto database = db::make_controller_database();
  callproc::VmProgramParams params;
  params.ids = db::resolve_controller_ids(database->schema());
  params.num_subscribers = static_cast<std::int32_t>(
      database->schema().tables[params.ids.subscriber].num_records);
  const vm::Program program = callproc::build_call_program(params);
  const pecos::Plan plan = pecos::Plan::instrument(program);

  VmTiming timing;
  {
    Span span(&spans, "vm.drive");
    std::uint64_t instructions = 0;
    double ns = 0.0;
    int runs = 0;
    const auto start = Clock::now();
    do {
      const VmRun run = run_call_program(program, nullptr);
      instructions += run.instructions;
      ns += run.quantum_ns;
      ++runs;
    } while (elapsed_s(start) < 0.05);
    timing.instructions = static_cast<double>(instructions) / runs;
    timing.ns_per_instr = instructions ? ns / static_cast<double>(instructions) : 0.0;
  }
  {
    Span span(&spans, "pecos.drive");
    std::uint64_t checks = 0;
    double ns = 0.0;
    int runs = 0;
    const auto start = Clock::now();
    do {
      pecos::PecosMonitor pecos_monitor(plan);
      TimedMonitor timed(pecos_monitor);
      run_call_program(program, &timed);
      checks += pecos_monitor.stats().checks;
      ns += timed.ns;
      ++runs;
    } while (elapsed_s(start) < 0.05);
    timing.checks = static_cast<double>(checks) / runs;
    timing.ns_per_check = checks ? ns / static_cast<double>(checks) : 0.0;
  }
  return timing;
}

double drive_cf_log(SpanLog& spans) {
  Span span(&spans, "pecos.cf_log_drive");
  constexpr std::uint32_t kThreads = 16;
  constexpr int kRecords = 100000;
  std::vector<pecos::CfTransition> drained;
  const double ns = mean_ns(0.03, 3, [&]() {
    pecos::CfLog log(256);
    for (int i = 0; i < kRecords; ++i) {
      const auto at = static_cast<std::uint32_t>(i);
      log.record({at % kThreads, at, at + 7, static_cast<sim::Time>(at), false});
      // One attestation slice per 128 transitions per thread.
      if (at % (128 * kThreads) == 0) {
        for (std::uint32_t t = 0; t < kThreads; ++t) {
          drained.clear();
          log.drain(t, drained);
        }
      }
    }
  });
  return ns / kRecords;
}

// --- inject ---

/// Forwards the region hooks to the oracle and times each call.
class TimedObserver final : public db::RegionObserver {
 public:
  explicit TimedObserver(db::RegionObserver& inner) : inner_(inner) {}
  void on_legitimate_write(std::size_t offset, std::size_t len) override {
    const auto t0 = Clock::now();
    inner_.on_legitimate_write(offset, len);
    writes.add(elapsed_ns(t0));
  }
  void on_client_read(sim::ProcessId pid, std::size_t offset,
                      std::size_t len) override {
    const auto t0 = Clock::now();
    inner_.on_client_read(pid, offset, len);
    reads.add(elapsed_ns(t0));
  }
  OpTimer writes;
  OpTimer reads;

 private:
  db::RegionObserver& inner_;
};

struct OracleTiming {
  double write_ns = 0.0;
  double read_ns = 0.0;
  double ns_per_call = 0.0;  ///< over reads and writes together
  double calls_per_run = 0.0;
};

/// Records one clean Table-3 run's op stream, then re-applies it through
/// DbApi with the oracle observing; the stream's reads are delivered to the
/// oracle through the same forwarding observer.
OracleTiming drive_oracle(const Options& options, SpanLog& spans) {
  Span span(&spans, "inject.oracle_drive");
  auto params = bench::table2_params();
  params.injections_enabled = false;
  params.record_oplog_path = options.out_dir + "/t3_clean_run.oplog";
  (void)experiments::run_audit_experiment(params);
  const db::OpLogReadResult log = db::load_op_log(params.record_oplog_path);
  if (!log.ok()) {
    throw std::runtime_error("oracle drive: cannot load " + params.record_oplog_path);
  }
  OpTimer writes;
  OpTimer reads;
  int passes = 0;
  const auto start = Clock::now();
  do {
    auto database = db::make_controller_database(params.schema);
    sim::Time now = 0;
    inject::CorruptionOracle oracle(*database, [&now]() { return now; });
    TimedObserver timed(oracle);
    database->set_observer(&timed);
    (void)experiments::apply_op_log(*database, log.events);
    const db::Layout& layout = database->layout();
    for (const db::ApiEvent& event : log.events) {
      if (event.op == db::ApiOp::ReadRec || event.op == db::ApiOp::ReadFld) {
        now = event.time;
        const std::size_t at = event.op == db::ApiOp::ReadFld
                                   ? layout.field_offset(event.table, event.record,
                                                         event.field)
                                   : layout.record_offset(event.table, event.record);
        const std::size_t len = event.op == db::ApiOp::ReadFld
                                    ? 4
                                    : layout.table(event.table).record_size;
        timed.on_client_read(event.client, at, len);
      }
    }
    database->set_observer(nullptr);
    writes.count += timed.writes.count;
    writes.ns += timed.writes.ns;
    reads.count += timed.reads.count;
    reads.ns += timed.reads.ns;
    ++passes;
  } while (elapsed_s(start) < 0.05);
  OracleTiming timing;
  timing.write_ns = writes.per_op();
  timing.read_ns = reads.per_op();
  timing.ns_per_call = (writes.ns + reads.ns) / static_cast<double>(writes.count + reads.count);
  timing.calls_per_run = static_cast<double>(writes.count + reads.count) / passes;
  return timing;
}

}  // namespace

std::unique_ptr<db::Database> live_controller_database(std::uint64_t seed) {
  auto params = bench::table2_params();
  params.seed += seed;
  params.injections_enabled = false;
  params.capture_final_region = true;
  const auto result = experiments::run_audit_experiment(params);
  auto database = db::make_controller_database(params.schema);
  if (!database->install_image(result.final_region)) {
    throw std::runtime_error("cannot install a clean Table-3 final region");
  }
  return database;
}

AuditTiming time_audit(db::Database& db, const audit::EngineConfig& config,
                       SpanLog& spans) {
  AuditTiming timing;
  // A clock far past every write: the recent-write grace skips nothing.
  audit::AuditEngine engine(db, config, []() { return sim::Time{1} << 50; });
  const auto tables = static_cast<db::TableId>(db.schema().tables.size());
  std::vector<db::TableId> order;
  for (db::TableId t = 0; t < tables; ++t) {
    order.push_back(t);
  }
  const double s = config.cost_scale;
  timing.static_modelled_us = scaled(config.cost_per_static_chunk, s);
  timing.structure_modelled_us = scaled(config.cost_per_record_structural, s);
  timing.ranges_modelled_us = scaled(config.cost_per_field_range, s);
  timing.semantics_modelled_us = scaled(config.cost_per_loop_semantic, s);

  // Items scanned = booked cost / scaled per-item cost (exact on a clean
  // database, where no repair books extra).
  const auto per_item = [&](const char* name, double unit_us, auto&& check) {
    Span span(&spans, name);
    audit::CheckResult last;
    const double ns = mean_ns(0.02, 2, [&]() { last = check(); });
    timing.findings += last.findings;
    const double items = unit_us > 0 ? static_cast<double>(last.cost) / unit_us : 0.0;
    return items > 0 ? ns / items : 0.0;
  };
  timing.static_ns_per_chunk = per_item("audit.static", timing.static_modelled_us,
                                        [&]() { return engine.check_static(); });
  timing.structure_ns_per_record =
      per_item("audit.structure", timing.structure_modelled_us, [&]() {
        audit::CheckResult sum;
        for (db::TableId t = 0; t < tables; ++t) {
          sum += engine.check_structure(t);
        }
        return sum;
      });
  timing.ranges_ns_per_field =
      per_item("audit.ranges", timing.ranges_modelled_us, [&]() {
        audit::CheckResult sum;
        for (db::TableId t = 0; t < tables; ++t) {
          sum += engine.check_ranges(t);
        }
        return sum;
      });
  timing.semantics_ns_per_loop = per_item(
      "audit.semantics", timing.semantics_modelled_us,
      [&]() { return engine.check_semantics(); });
  if (timing.semantics_ns_per_loop == 0.0) {
    auto live = live_controller_database(0);
    audit::AuditEngine loops(*live, config, []() { return sim::Time{1} << 50; });
    timing.semantics_ns_per_loop =
        per_item("audit.semantics", timing.semantics_modelled_us,
                 [&]() { return loops.check_semantics(); });
    timing.semantics_elsewhere = true;
  }
  {
    Span span(&spans, "audit.full_pass");
    audit::CheckResult last;
    timing.cycle_ms =
        mean_ns(0.02, 2, [&]() { last = engine.full_pass(order); }) * 1e-6;
    timing.findings += last.findings;
    timing.cycle_modelled_ms =
        static_cast<double>(engine.last_cycle_makespan()) * 1e-3;
  }
  return timing;
}

std::vector<std::string> audit_report(const AuditTiming& t) {
  std::vector<std::string> lines;
  char line[160];
  lines.emplace_back(
      "technique    measured ns/item   *modelled* us/item   item");
  const auto row = [&](const char* name, double ns, double us, const char* item) {
    std::snprintf(line, sizeof line, "%-12s %16.1f %20.0f   %s", name, ns, us, item);
    lines.emplace_back(line);
  };
  row("static", t.static_ns_per_chunk, t.static_modelled_us, "static chunk");
  row("structure", t.structure_ns_per_record, t.structure_modelled_us, "record header");
  row("ranges", t.ranges_ns_per_field, t.ranges_modelled_us, "ranged field");
  row("semantics", t.semantics_ns_per_loop, t.semantics_modelled_us, "FK loop");
  std::snprintf(line, sizeof line,
                "full cycle: measured %.3f ms wall, *modelled* makespan %.1f ms",
                t.cycle_ms, t.cycle_modelled_ms);
  lines.emplace_back(line);
  if (t.semantics_elsewhere) {
    lines.emplace_back("(semantics timed on a live Table-3 region: this database "
                       "holds no FK loop)");
  }
  return lines;
}

void fill_counts(LayerValues& v, const obs::MetricsSnapshot& m,
                 std::uint64_t traced_runs) {
  using obs::Counter;
  // Per run, so a count repeats exactly however many passes the traced
  // phase managed in its time.
  const double runs = traced_runs == 0 ? 1.0 : static_cast<double>(traced_runs);
  const auto per_run = [&](Counter c) { return static_cast<double>(m.counter(c)) / runs; };
  v.sim_events_per_run = per_run(Counter::sched_events_fired);
  v.sim_max_pending =
      static_cast<double>(m.gauge(obs::Gauge::sched_max_pending_events));
  v.db_reads = per_run(Counter::db_reads);
  v.db_writes = per_run(Counter::db_writes);
  v.db_splices = per_run(Counter::db_index_splices);
  v.db_resyncs = per_run(Counter::db_index_resyncs);
  v.db_rebuilds = per_run(Counter::db_index_rebuilds);
  v.audit_checks = per_run(Counter::audit_checks);
  v.audit_passes = per_run(Counter::audit_passes);
  v.audit_cf_slices = per_run(Counter::audit_cf_slices);
  v.audit_cf_transitions = per_run(Counter::audit_cf_transitions_attested);
  v.pecos_checks = per_run(Counter::pecos_checks);
  v.pecos_cf_transitions = per_run(Counter::pecos_cf_transitions_logged);
  v.manager_heartbeats = per_run(Counter::manager_heartbeats_sent);
  v.manager_heals = per_run(Counter::manager_heals);
}

void run_standard_drives(LayerValues& v, const Options& options, SpanLog& spans) {
  v.sim_ns_per_event = drive_sim(spans);
  const VmTiming vm = drive_vm(spans);
  v.vm_instructions = vm.instructions;
  v.vm_ns_per_instr = vm.ns_per_instr;
  v.pecos_ns_per_check = vm.ns_per_check;
  if (v.pecos_checks == 0.0) {
    v.pecos_checks = vm.checks;  // the workload runs no PECOS: drive count
  }
  v.cf_log_ns_per_record = drive_cf_log(spans);
  const OracleTiming oracle = drive_oracle(options, spans);
  v.oracle_write_ns = oracle.write_ns;
  v.oracle_read_ns = oracle.read_ns;
  v.oracle_ns_per_call = oracle.ns_per_call;
  v.oracle_calls_per_run = oracle.calls_per_run;
}

std::vector<Metric> layer_metrics(const LayerValues& v) {
  const double rebuilds_per_kop =
      v.db_mutating_ops > 0 ? v.db_rebuilds / (v.db_mutating_ops / 1000.0) : 0.0;
  const auto& a = v.audit;
  const auto& o = v.oplog;
  return {
      {"sim.events", v.sim_events_per_run, "count"},
      {"sim.ns_per_event", v.sim_ns_per_event, "ns"},
      {"sim.max_pending", v.sim_max_pending, "count"},
      {"db.alloc.ns", v.db_ops.alloc.per_op(), "ns"},
      {"db.free.ns", v.db_ops.free.per_op(), "ns"},
      {"db.move.ns", v.db_ops.move.per_op(), "ns"},
      {"db.write_fld.ns", v.db_ops.write_fld.per_op(), "ns"},
      {"db.read_rec.ns", v.db_ops.read_rec.per_op(), "ns"},
      {"db.transfer.ns", v.db_ops.transfer.per_op(), "ns"},
      {"db.reads", v.db_reads, "count"},
      {"db.writes", v.db_writes, "count"},
      {"db.index.splices", v.db_splices, "count"},
      {"db.index.resyncs", v.db_resyncs, "count"},
      {"db.index.rebuilds", v.db_rebuilds, "count"},
      {"db.index.rebuilds_per_kop", rebuilds_per_kop, "1/kop"},
      {"db.build_ms", v.db_build_ms, "ms"},
      {"db.region_mb", v.db_region_mb, "MB"},
      {"audit.static.ns_per_chunk", a.static_ns_per_chunk, "ns"},
      {"audit.static.modelled_us_per_item", a.static_modelled_us, "model_us"},
      {"audit.structure.ns_per_record", a.structure_ns_per_record, "ns"},
      {"audit.structure.modelled_us_per_item", a.structure_modelled_us, "model_us"},
      {"audit.ranges.ns_per_field", a.ranges_ns_per_field, "ns"},
      {"audit.ranges.modelled_us_per_item", a.ranges_modelled_us, "model_us"},
      {"audit.semantics.ns_per_loop", a.semantics_ns_per_loop, "ns"},
      {"audit.semantics.modelled_us_per_item", a.semantics_modelled_us, "model_us"},
      {"audit.cycle_ms", a.cycle_ms, "ms"},
      {"audit.cycle.modelled_ms", a.cycle_modelled_ms, "model_ms"},
      {"audit.checks", v.audit_checks, "count"},
      {"audit.passes", v.audit_passes, "count"},
      {"audit.replay.ns_per_event", o.replay_ns_per_event, "ns"},
      {"audit.replay.exec_share", o.replay_exec_share, "ratio"},
      {"audit.cf.slices", v.audit_cf_slices, "count"},
      {"audit.cf.transitions", v.audit_cf_transitions, "count"},
      {"inject.oracle.write_ns", v.oracle_write_ns, "ns"},
      {"inject.oracle.read_ns", v.oracle_read_ns, "ns"},
      {"inject.oracle.calls_per_run", v.oracle_calls_per_run, "count"},
      {"inject.injections", v.injections, "count"},
      {"vm.instructions", v.vm_instructions, "count"},
      {"vm.ns_per_instr", v.vm_ns_per_instr, "ns"},
      {"pecos.checks", v.pecos_checks, "count"},
      {"pecos.ns_per_check", v.pecos_ns_per_check, "ns"},
      {"pecos.cf_log.ns_per_record", v.cf_log_ns_per_record, "ns"},
      {"pecos.cf_transitions", v.pecos_cf_transitions, "count"},
      {"callproc.calls", v.callproc_calls, "count"},
      {"callproc.modelled_setup_ms", v.callproc_modelled_setup_ms, "model_ms"},
      {"manager.heartbeats", v.manager_heartbeats, "count"},
      {"manager.heals", v.manager_heals, "count"},
      {"oplog.decode_mb_per_s", o.decode_mb_per_s, "MB/s"},
      {"oplog.encode_mb_per_s", o.encode_mb_per_s, "MB/s"},
      {"oplog.disk_bytes_per_event", o.disk_bytes_per_event, "B"},
      {"oplog.mem_bytes_per_event", o.mem_bytes_per_event, "B"},
      {"experiments.replay_apply_ns_per_op", o.apply_ns_per_op, "ns"},
  };
}

}  // namespace wtcperf
