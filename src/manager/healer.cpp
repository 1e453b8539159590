#include "manager/healer.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "db/direct.hpp"
#include "db/layout.hpp"
#include "obs/metrics.hpp"

namespace wtc::manager {

CfHealer::CfHealer(db::Database& db, db::ThreadOpLog& op_log,
                   pecos::CfLog& cf_log, audit::HealableClient& client,
                   audit::ClientControl* control, audit::ReportSink* sink,
                   std::function<sim::Time()> clock)
    : db_(db),
      op_log_(op_log),
      cf_log_(cf_log),
      client_(client),
      control_(control),
      sink_(sink),
      clock_(std::move(clock)) {}

bool CfHealer::heal(const audit::CfViolation& violation) {
  const std::uint32_t tid = violation.thread;
  if (tid < last_heal_.size() && last_heal_[tid].valid &&
      violation.time <= last_heal_[tid].time) {
    // The preemptive monitor and the attestation slice both report the
    // same transfer; the second report arrives after the first heal
    // completed and must not re-run the surgery.
    ++skipped_;
    common::log(common::LogLevel::Debug, "manager",
                "heal: thread ", tid, " already healed past t=",
                violation.time, ", skipping duplicate report");
    return true;
  }

  // Faults tolerated inside the healing sequence before escalating.
  constexpr std::uint32_t kMaxHealFaults = 2;
  const sim::Time start = clock_();
  std::uint32_t faults = 0;
  for (;;) {
    try {
      try_heal(violation);
      break;
    } catch (...) {
      ++faults;
      common::log(common::LogLevel::Warn, "manager",
                  "heal: fault ", faults, "/", kMaxHealFaults,
                  " inside healing sequence for thread ", tid);
      if (faults >= kMaxHealFaults) {
        escalate(violation);
        return false;
      }
    }
  }

  if (last_heal_.size() <= tid) {
    last_heal_.resize(tid + 1);
  }
  last_heal_[tid] = LastHeal{clock_(), true};
  ++heals_;
  obs::count(obs::Counter::manager_heals);
  obs::trace_span("manager.heal", "manager", start, clock_() - start);
  common::log(common::LogLevel::Info, "manager", "heal: thread ", tid,
              " healed (violation ", violation.from_pc, " -> ",
              violation.to_pc, " at t=", violation.time, ", source=",
              violation.source == audit::CfSource::Preemptive ? "preemptive"
                                                              : "attestation",
              ")");
  if (sink_ != nullptr) {
    audit::Finding finding;
    finding.technique = audit::Technique::CfAttestation;
    finding.recovery = audit::Recovery::HealThread;
    finding.time = clock_();
    sink_->on_finding(finding);
  }
  return true;
}

void CfHealer::stage(std::uint32_t number, const char* name,
                     const std::function<void()>& body) {
  if (fault_hook_) {
    fault_hook_(number);
  }
  const sim::Time start = clock_();
  body();
  obs::trace_span(name, "manager", start, clock_() - start);
}

void CfHealer::try_heal(const audit::CfViolation& violation) {
  const std::uint32_t tid = violation.thread;
  const auto& ops = op_log_.ops(tid);
  const db::Layout& layout = db_.layout();

  // --- stage 1: terminate the offending thread -------------------------
  stage(1, "heal.terminate", [&]() { client_.heal_terminate_thread(tid); });

  // --- stage 2: restore touched records from the golden disk copy ------
  // Touched set in first-touch order; a record is skipped when another
  // thread has re-allocated it since (its region header is active but the
  // redundant metadata attributes the last write elsewhere) — wiping it
  // would turn one thread's CF error into a second thread's data loss.
  std::vector<std::pair<db::TableId, db::RecordIndex>> touched;
  std::vector<bool> owned;
  for (const auto& op : ops) {
    if (op.table >= db_.table_count()) {
      continue;
    }
    const auto key = std::make_pair(op.table, op.record);
    if (std::find(touched.begin(), touched.end(), key) == touched.end()) {
      touched.push_back(key);
    }
  }
  stage(2, "heal.restore", [&]() {
    owned.assign(touched.size(), false);
    for (std::size_t i = 0; i < touched.size(); ++i) {
      const auto [t, r] = touched[i];
      const std::size_t at = layout.record_offset(t, r);
      const auto header = db::load_record_header(db_.region(), at);
      if (header.status == db::kStatusActive &&
          db_.record_meta(t, r).last_writer_thread != tid) {
        continue;  // foreign ownership — leave it alone
      }
      owned[i] = true;
      db_.reload_span_from_disk(at, layout.table(t).record_size);
      ++restored_;
    }
  });

  // --- stage 3: replay the trusted op tail, release held records -------
  stage(3, "heal.replay", [&]() {
    // Ops stamped strictly before the violating transfer are trusted; the
    // violation's own quantum is conservatively suspect (the transfer may
    // have preceded the ops within the quantum).
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].time >= violation.time) {
        break;  // ops are recorded in time order
      }
      const auto key = std::make_pair(ops[i].table, ops[i].record);
      const auto it = std::find(touched.begin(), touched.end(), key);
      if (it == touched.end() ||
          !owned[static_cast<std::size_t>(it - touched.begin())]) {
        continue;
      }
      replay_op(ops[i]);
    }
    // The thread restarts from scratch: records it allocated and still
    // holds carry in-flight call state that no one will ever complete —
    // free them (the semantic audit's zombie-record recovery, reused).
    for (std::size_t i = 0; i < touched.size(); ++i) {
      if (!owned[i]) {
        continue;
      }
      const auto [t, r] = touched[i];
      bool allocated = false;
      bool held = false;
      for (const auto& op : ops) {
        if (op.time >= violation.time || op.table != t || op.record != r) {
          continue;
        }
        if (op.op == db::ApiOp::Alloc) {
          allocated = true;
          held = true;
        } else if (op.op == db::ApiOp::Free) {
          held = false;
        }
      }
      if (allocated && held) {
        db::direct::free_record(db_, t, r);
      }
    }
    // Chains and shadow indices were invalidated wholesale by the
    // restore+replay writes: rebuild per touched table, then verify every
    // restored record's header before declaring the database healed.
    std::vector<db::TableId> tables;
    for (const auto& [t, r] : touched) {
      if (std::find(tables.begin(), tables.end(), t) == tables.end()) {
        tables.push_back(t);
      }
    }
    for (const db::TableId t : tables) {
      db::direct::relink_table(db_, t);
      db_.rebuild_index(t);
    }
    for (std::size_t i = 0; i < touched.size(); ++i) {
      if (!owned[i]) {
        continue;
      }
      const auto [t, r] = touched[i];
      // The id tag and status clauses of the header invariant.
      const auto header =
          db::load_record_header(db_.region(), layout.record_offset(t, r));
      if ((db::header_faults(header, t, r, false, header.next) &
           (db::kFaultIdTag | db::kFaultStatus)) != 0) {
        throw std::runtime_error("heal: post-replay header verification failed");
      }
    }
  });

  // --- stage 4: restart the thread at a clean entry ---------------------
  stage(4, "heal.restart", [&]() {
    op_log_.clear_thread(tid);
    cf_log_.clear_thread(tid);
    client_.heal_restart_thread(tid);
  });
}

void CfHealer::replay_op(const db::ApiEvent& op) {
  const db::Layout& layout = db_.layout();
  const std::size_t at = layout.record_offset(op.table, op.record);
  auto region = db_.region();
  switch (op.op) {
    case db::ApiOp::Alloc: {
      // Fields were restored to catalog defaults by the disk reload — the
      // same state alloc_rec initializes; only the header words replay.
      auto header = db::load_record_header(region, at);
      header.status = db::kStatusActive;
      header.group = op.group;
      db::store_record_header(region, at, header);
      db_.note_write(at, db::kRecordHeaderSize);
      break;
    }
    case db::ApiOp::Free: {
      // As DBfree_rec: the header goes free and the data portion back to
      // the catalog defaults, so no replayed WriteRec outlives the free.
      auto header = db::load_record_header(region, at);
      header.status = db::kStatusFree;
      header.group = 0;
      db::store_record_header(region, at, header);
      const auto& fields = db_.schema().tables[op.table].fields;
      for (std::size_t f = 0; f < fields.size(); ++f) {
        db::store_i32(region, at + db::kRecordHeaderSize + f * 4,
                      fields[f].default_value);
      }
      db_.note_write(at, layout.table(op.table).record_size);
      break;
    }
    case db::ApiOp::Move: {
      auto header = db::load_record_header(region, at);
      header.group = op.group;
      db::store_record_header(region, at, header);
      db_.note_write(at, db::kRecordHeaderSize);
      break;
    }
    case db::ApiOp::WriteRec: {
      for (std::uint8_t f = 0; f < op.payload_len; ++f) {
        db::store_i32(region, at + db::kRecordHeaderSize +
                                  static_cast<std::size_t>(f) * 4,
                      op.payload[f]);
      }
      db_.note_write(at + db::kRecordHeaderSize,
                     static_cast<std::size_t>(op.payload_len) * 4);
      break;
    }
    case db::ApiOp::WriteFld: {
      const std::size_t field_at =
          layout.field_offset(op.table, op.record, op.field);
      db::store_i32(region, field_at, op.payload[0]);
      db_.note_write(field_at, 4);
      break;
    }
    default:
      return;  // non-mutating ops never enter the log
  }
  ++replayed_;
  obs::count(obs::Counter::manager_heal_replayed_ops);
}

void CfHealer::escalate(const audit::CfViolation& violation) {
  ++escalations_;
  obs::count(obs::Counter::manager_heal_escalations);
  obs::trace_instant("manager.heal_escalation", "manager", clock_());
  common::log(common::LogLevel::Error, "manager",
              "heal: sequence faulted twice for thread ", violation.thread,
              ", escalating to process kill");
  if (control_ != nullptr && violation.client != sim::kNoProcess) {
    control_->kill_client_process(violation.client);
  }
  if (sink_ != nullptr) {
    audit::Finding finding;
    finding.technique = audit::Technique::CfAttestation;
    finding.recovery = audit::Recovery::KillClientProcess;
    finding.time = clock_();
    sink_->on_finding(finding);
  }
}

}  // namespace wtc::manager
