// The emulated call-processing client (§5.1).
//
// Provides the basic service of setting up and tearing down a call,
// without supplementary features: multiple threads concurrently handle
// incoming calls, each walking the Figure-2 phases —
//
//     authentication -> resource allocation -> active call -> teardown
//
// with retry loops on authentication and allocation failure. Each call
// writes one record into each of Process / Connection / Resource, closing
// the §4.3.3 semantic loop, keeps golden local copies of everything it
// wrote, and compares them against the database at teardown (Figure 8) —
// a mismatch means corrupted data reached the application.
//
// This client is the workload for the audit-effectiveness experiments
// (Tables 3-4, Figures 3, 5, 6); the PECOS experiments use the MiniVM
// compilation of the same logic (vm_program.hpp).
#pragma once

#include <array>
#include <cstdint>

#include "callproc/control.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "db/api.hpp"
#include "db/controller_schema.hpp"
#include "sim/cpu.hpp"
#include "sim/node.hpp"

namespace wtc::callproc {

/// Authentication attempts per call before the call fails (Figure 2's
/// retry loop); the MiniVM compilation (vm_program.hpp) uses the same.
inline constexpr std::uint32_t kAuthRetries = 3;

class NativeCallClient final : public sim::Process, public ControllableClient {
 public:
  /// Table 2's load: call-handling threads, call holding time (uniform in
  /// [min, max)) and each thread's mean inter-arrival time.
  static constexpr std::uint32_t kThreads = 16;
  static constexpr sim::Duration kCallDurationMin =
      20 * static_cast<sim::Duration>(sim::kSecond);
  static constexpr sim::Duration kCallDurationMax =
      30 * static_cast<sim::Duration>(sim::kSecond);
  static constexpr sim::Duration kInterArrivalMean =
      10 * static_cast<sim::Duration>(sim::kSecond);
  /// Per-phase non-DB processing cost booked on the CPU (microseconds) —
  /// the work that makes call setup take paper-scale wall time.
  static constexpr sim::Duration kPhaseWork =
      40 * static_cast<sim::Duration>(sim::kMillisecond);

  struct Stats {
    std::uint64_t calls_attempted = 0;
    std::uint64_t calls_completed = 0;      ///< torn down with golden match
    std::uint64_t auth_failures = 0;        ///< auth phase exhausted retries
    std::uint64_t alloc_failures = 0;       ///< no free records
    std::uint64_t golden_mismatches = 0;    ///< Figure-8 compare failed
    std::uint64_t calls_dropped = 0;        ///< record freed / thread terminated
    common::RunningStats setup_time_ms;     ///< arrival -> active
  };

  NativeCallClient(db::Database& db, const db::ControllerIds& ids, sim::Cpu& cpu,
                   common::Rng rng, db::NotificationSink* sink);

  void on_start() override;
  void on_stopped() override;

  /// Semantic-audit recovery entry point: drop thread `thread_id`'s
  /// current call; the thread picks up a fresh call afterwards.
  void control_terminate_thread(std::uint32_t thread_id) override;

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] bool running() const noexcept { return running_; }

 private:
  enum class Phase : std::uint8_t { Idle, Auth, Alloc, Active, Teardown };

  struct CallThread {
    Phase phase = Phase::Idle;
    std::uint32_t generation = 0;  ///< invalidates stale timers on terminate
    sim::Time arrival = 0;
    std::uint32_t auth_tries = 0;
    std::uint32_t alloc_tries = 0;
    db::RecordIndex process_rec = 0;
    db::RecordIndex connection_rec = 0;
    db::RecordIndex resource_rec = 0;
    bool holds_records = false;
    // Golden local copies of every field written (Figure 8 step 2); the
    // teardown comparison covers the complete records (step 5).
    std::array<std::int32_t, 8> golden_process{};
    std::array<std::int32_t, 8> golden_connection{};
    std::array<std::int32_t, 8> golden_resource{};
  };

  void schedule_phase(std::uint32_t t, sim::Duration extra_work,
                      void (NativeCallClient::*phase_fn)(std::uint32_t));
  void schedule_arrival(std::uint32_t t);
  void begin_call(std::uint32_t t);
  void phase_auth(std::uint32_t t);
  void phase_alloc(std::uint32_t t);
  void phase_move_stable(std::uint32_t t);
  void phase_teardown(std::uint32_t t);
  void finish_call(std::uint32_t t, bool completed);
  void release_records(std::uint32_t t);

  db::Database& db_;
  db::ControllerIds ids_;
  sim::Cpu& cpu_;
  common::Rng rng_;
  db::DbApi api_;
  std::array<CallThread, kThreads> threads_{};
  Stats stats_;
  bool running_ = false;
};

}  // namespace wtc::callproc
