#include "callproc/native_client.hpp"

#include <algorithm>

namespace wtc::callproc {

namespace {
/// The constant task token every call-processing thread stamps into its
/// Process record — a peaked attribute distribution that the selective
/// attribute monitor (§4.4.2) can derive an invariant for.
constexpr std::int32_t kTaskTokenMagic = 0x7A5C;

/// Allocation attempts per call before the call fails.
constexpr std::uint32_t kAllocRetries = 2;
}  // namespace

NativeCallClient::NativeCallClient(db::Database& db, const db::ControllerIds& ids,
                                   sim::Cpu& cpu, common::Rng rng,
                                   db::NotificationSink* sink)
    : db_(db),
      ids_(ids),
      cpu_(cpu),
      rng_(rng),
      api_(db, [this]() { return this->now(); }) {
  api_.set_audit_hooks(sink);
}

void NativeCallClient::on_start() {
  running_ = true;
  api_.init(pid());
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    schedule_arrival(t);
  }
}

void NativeCallClient::on_stopped() {
  running_ = false;
  if (api_.connected()) {
    api_.close();
  }
}

void NativeCallClient::schedule_phase(std::uint32_t t, sim::Duration extra_work,
                                      void (NativeCallClient::*phase_fn)(
                                          std::uint32_t)) {
  const std::uint32_t generation = threads_[t].generation;
  const sim::Time done = cpu_.book(now(), extra_work);
  schedule_after(static_cast<sim::Duration>(done - now()),
                 [this, t, generation, phase_fn]() {
                   if (running_ && threads_[t].generation == generation) {
                     (this->*phase_fn)(t);
                   }
                 });
}

void NativeCallClient::schedule_arrival(std::uint32_t t) {
  const auto wait = static_cast<sim::Duration>(
      rng_.exponential(static_cast<double>(kInterArrivalMean)));
  const std::uint32_t generation = threads_[t].generation;
  schedule_after(wait, [this, t, generation]() {
    if (running_ && threads_[t].generation == generation) {
      begin_call(t);
    }
  });
}

void NativeCallClient::begin_call(std::uint32_t t) {
  auto& thread = threads_[t];
  thread.phase = Phase::Auth;
  thread.arrival = now();
  thread.auth_tries = 0;
  thread.alloc_tries = 0;
  thread.holds_records = false;
  ++stats_.calls_attempted;
  schedule_phase(t, kPhaseWork, &NativeCallClient::phase_auth);
}

void NativeCallClient::phase_auth(std::uint32_t t) {
  auto& thread = threads_[t];
  api_.set_thread_id(t);

  // Authenticate a random subscriber: the static Subscriber table must
  // agree with the identity the client derives locally. Corrupted
  // subscriber data fails authentication, exactly like a real data error
  // reaching the application.
  const auto subscriber = static_cast<db::RecordIndex>(
      rng_.uniform(db_.schema().tables[ids_.subscriber].num_records));
  std::int32_t stored_id = 0;
  std::int32_t stored_key = 0;
  const auto s1 =
      api_.read_fld(ids_.subscriber, subscriber, ids_.s_subscriber_id, stored_id);
  const auto s2 =
      api_.read_fld(ids_.subscriber, subscriber, ids_.s_auth_key, stored_key);
  const bool ok = s1 == db::Status::Ok && s2 == db::Status::Ok &&
                  stored_id == db::key_of(subscriber) &&
                  stored_key == db::subscriber_auth_key(subscriber);

  const sim::Duration cost =
      db::api_cost(db::ApiOp::ReadFld, api_.instrumented()) * 2;
  if (ok) {
    thread.phase = Phase::Alloc;
    schedule_phase(t, kPhaseWork + cost, &NativeCallClient::phase_alloc);
    return;
  }
  if (++thread.auth_tries < kAuthRetries) {
    schedule_phase(t, kPhaseWork + cost, &NativeCallClient::phase_auth);
    return;
  }
  ++stats_.auth_failures;
  finish_call(t, false);
}

void NativeCallClient::phase_alloc(std::uint32_t t) {
  auto& thread = threads_[t];
  api_.set_thread_id(t);
  sim::Duration cost = kPhaseWork;

  const auto retry = [&](bool count_failure) {
    if (count_failure) {
      ++stats_.alloc_failures;
    }
    if (++thread.alloc_tries < kAllocRetries) {
      schedule_phase(t, cost, &NativeCallClient::phase_alloc);
    } else {
      finish_call(t, false);
    }
  };

  // Resource-allocation transaction: lock the three loop tables, allocate
  // one record in each, write the semantic loop, unlock. A crash inside
  // this window leaves locks behind for the progress indicator (§4.2).
  const db::TableId tables[] = {ids_.process, ids_.connection, ids_.resource};
  for (std::size_t i = 0; i < 3; ++i) {
    cost += db::api_cost(db::ApiOp::TxnBegin, api_.instrumented());
    if (api_.txn_begin(tables[i]) != db::Status::Ok) {
      for (std::size_t j = 0; j < i; ++j) {
        api_.txn_end(tables[j]);
      }
      retry(false);
      return;
    }
  }

  db::RecordIndex p = 0;
  db::RecordIndex c = 0;
  db::RecordIndex r = 0;
  const auto a1 = api_.alloc_rec(ids_.process, db::kGroupActiveCalls, p);
  const auto a2 = api_.alloc_rec(ids_.connection, db::kGroupActiveCalls, c);
  const auto a3 = api_.alloc_rec(ids_.resource, db::kGroupActiveCalls, r);
  cost += db::api_cost(db::ApiOp::Alloc, api_.instrumented()) * 3;
  if (a1 != db::Status::Ok || a2 != db::Status::Ok || a3 != db::Status::Ok) {
    if (a1 == db::Status::Ok) api_.free_rec(ids_.process, p);
    if (a2 == db::Status::Ok) api_.free_rec(ids_.connection, c);
    if (a3 == db::Status::Ok) api_.free_rec(ids_.resource, r);
    for (const db::TableId table : tables) {
      api_.txn_end(table);
    }
    retry(true);
    return;
  }

  thread.process_rec = p;
  thread.connection_rec = c;
  thread.resource_rec = r;
  thread.holds_records = true;

  // Determine the data to write and keep golden local copies of every
  // field (Figure 8 step 2). Fields the client leaves alone keep their
  // catalog defaults, so the goldens start from the defaults too.
  auto& gp = thread.golden_process;
  auto& gc = thread.golden_connection;
  auto& gr = thread.golden_resource;
  const auto load_defaults = [&](db::TableId table,
                                 std::array<std::int32_t, 8>& golden) {
    const auto& fields = db_.schema().tables[table].fields;
    for (std::size_t f = 0; f < fields.size() && f < golden.size(); ++f) {
      golden[f] = fields[f].default_value;
    }
  };
  load_defaults(ids_.process, gp);
  load_defaults(ids_.connection, gc);
  load_defaults(ids_.resource, gr);
  gp[ids_.p_process_id] = db::key_of(p);
  gp[ids_.p_connection_id] = db::key_of(c);
  gp[ids_.p_status] = 1;
  gp[ids_.p_priority] = static_cast<std::int32_t>(rng_.uniform(8));
  gp[ids_.p_task_token] = kTaskTokenMagic;
  gp[ids_.p_location_area] = static_cast<std::int32_t>(rng_.uniform(12)) * 16;
  gc[ids_.c_connection_id] = db::key_of(c);
  gc[ids_.c_channel_id] = db::key_of(r);
  gc[ids_.c_caller_id] = static_cast<std::int32_t>(rng_.uniform(1'000'000));
  gc[ids_.c_callee_id] = static_cast<std::int32_t>(rng_.uniform(1'000'000));
  gc[ids_.c_state] = 1;
  gc[ids_.c_feature_mask] = 0;
  gc[ids_.c_codec] = static_cast<std::int32_t>(rng_.uniform(4)) * 2;
  gr[ids_.r_channel_id] = db::key_of(r);
  gr[ids_.r_process_id] = db::key_of(p);
  gr[ids_.r_status] = 1;
  gr[ids_.r_capability] = static_cast<std::int32_t>(rng_.uniform(8));
  gr[ids_.r_power_level] = static_cast<std::int32_t>(rng_.uniform(101));
  gr[ids_.r_link_quality] = static_cast<std::int32_t>(rng_.uniform(4)) * 25;
  gr[ids_.r_timeslot] = static_cast<std::int32_t>(rng_.uniform(8));
  // Interference is reported in a coarse unit grid — another peaked
  // attribute the selective monitor can learn.
  gr[ids_.r_interference] = static_cast<std::int32_t>(rng_.uniform(3)) * 10;

  // Write the records (Figure 8 step 3), closing the semantic loop
  // Process -> Connection -> Resource -> Process.
  const auto write_all = [&](db::TableId table, db::RecordIndex rec,
                             const std::array<std::int32_t, 8>& golden,
                             std::size_t nfields) {
    api_.write_rec(table, rec, std::span<const std::int32_t>(golden.data(), nfields));
  };
  write_all(ids_.process, p, gp, db_.schema().tables[ids_.process].fields.size());
  write_all(ids_.connection, c, gc,
            db_.schema().tables[ids_.connection].fields.size());
  write_all(ids_.resource, r, gr, db_.schema().tables[ids_.resource].fields.size());
  cost += db::api_cost(db::ApiOp::WriteRec, api_.instrumented()) * 3;

  for (const db::TableId table : tables) {
    cost += db::api_cost(db::ApiOp::TxnEnd, api_.instrumented());
    api_.txn_end(table);
  }

  // Call set up: record the setup latency the moment the work drains.
  thread.phase = Phase::Active;
  const sim::Time active_at = cpu_.book(now(), cost);
  stats_.setup_time_ms.add(static_cast<double>(active_at - thread.arrival) /
                           static_cast<double>(sim::kMillisecond));

  constexpr auto kDurationSpread =
      static_cast<std::uint64_t>(kCallDurationMax - kCallDurationMin);
  const sim::Duration duration =
      kCallDurationMin + static_cast<sim::Duration>(rng_.uniform(kDurationSpread));
  const std::uint32_t generation = thread.generation;
  // Move long calls to the stable logical group (exercises DBmove).
  schedule_after(static_cast<sim::Duration>(active_at - now()) + duration / 2,
                 [this, t, generation]() {
                   if (running_ && threads_[t].generation == generation) {
                     phase_move_stable(t);
                   }
                 });
  schedule_after(static_cast<sim::Duration>(active_at - now()) + duration,
                 [this, t, generation]() {
                   if (running_ && threads_[t].generation == generation) {
                     phase_teardown(t);
                   }
                 });
}

void NativeCallClient::phase_move_stable(std::uint32_t t) {
  auto& thread = threads_[t];
  if (thread.phase != Phase::Active || !thread.holds_records) {
    return;
  }
  api_.set_thread_id(t);
  api_.move_rec(ids_.connection, thread.connection_rec, db::kGroupStableCalls);
  cpu_.book(now(), db::api_cost(db::ApiOp::Move, api_.instrumented()));
}

void NativeCallClient::phase_teardown(std::uint32_t t) {
  auto& thread = threads_[t];
  if (thread.phase != Phase::Active) {
    return;
  }
  thread.phase = Phase::Teardown;
  api_.set_thread_id(t);
  sim::Duration cost = kPhaseWork;

  // Figure 8 steps 4-5: read back each of the accessed records and compare
  // the data values with the golden local copies.
  bool dropped = false;
  bool mismatch = false;
  const auto check = [&](db::TableId table, db::RecordIndex rec,
                         const std::array<std::int32_t, 8>& golden) {
    std::array<std::int32_t, 8> readback{};
    const std::size_t nfields = db_.schema().tables[table].fields.size();
    const auto status =
        api_.read_rec(table, rec, std::span<std::int32_t>(readback.data(), nfields));
    if (status == db::Status::RecordNotActive) {
      dropped = true;  // audit recovery freed the record under us
      return;
    }
    if (status != db::Status::Ok) {
      return;
    }
    for (std::size_t f = 0; f < nfields; ++f) {
      if (readback[f] != golden[f]) {
        mismatch = true;
      }
    }
  };
  check(ids_.process, thread.process_rec, thread.golden_process);
  check(ids_.connection, thread.connection_rec, thread.golden_connection);
  check(ids_.resource, thread.resource_rec, thread.golden_resource);
  cost += db::api_cost(db::ApiOp::ReadRec, api_.instrumented()) * 3;

  release_records(t);
  cost += db::api_cost(db::ApiOp::Free, api_.instrumented()) * 3;
  cpu_.book(now(), cost);

  if (dropped) {
    ++stats_.calls_dropped;
    finish_call(t, false);
  } else if (mismatch) {
    ++stats_.golden_mismatches;
    finish_call(t, false);
  } else {
    finish_call(t, true);
  }
}

void NativeCallClient::release_records(std::uint32_t t) {
  auto& thread = threads_[t];
  if (!thread.holds_records) {
    return;
  }
  // Reverse order of the semantic chain; failures are tolerated (a record
  // may already have been freed by audit recovery).
  api_.free_rec(ids_.resource, thread.resource_rec);
  api_.free_rec(ids_.connection, thread.connection_rec);
  api_.free_rec(ids_.process, thread.process_rec);
  thread.holds_records = false;
}

void NativeCallClient::finish_call(std::uint32_t t, bool completed) {
  auto& thread = threads_[t];
  if (completed) {
    ++stats_.calls_completed;
  }
  thread.phase = Phase::Idle;
  schedule_arrival(t);
}

void NativeCallClient::control_terminate_thread(std::uint32_t thread_id) {
  if (thread_id >= threads_.size()) {
    return;
  }
  auto& thread = threads_[thread_id];
  if (thread.phase == Phase::Idle) {
    return;
  }
  // Preemptive termination (§4.3.3): the call is dropped; its records were
  // already freed by the audit's recovery. Invalidate the thread's pending
  // timers and start over with a fresh call.
  ++thread.generation;
  thread.phase = Phase::Idle;
  thread.holds_records = false;
  ++stats_.calls_dropped;
  schedule_arrival(thread_id);
}

}  // namespace wtc::callproc
