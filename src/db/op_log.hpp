// Minimal per-thread DbApi operation log (healing replay feed; DESIGN
// §12).
//
// A NotificationSink tee: every *successful update-class* ApiEvent is
// recorded under its issuing thread, then forwarded to the chained sink
// (the audit IPC adapter), so installing the log does not change what the
// audit process sees.
//
// The attestation element advances a per-thread watermark after each clean
// slice; ops at or before the watermark are *compacted* — only the latest
// op per (table, record) is kept (and records whose latest op is a Free
// are dropped entirely). That keeps the log minimal while preserving what
// healing needs: the full set of records the thread may still hold, plus
// the exact op tail since the last attested slice.
#pragma once

#include <cstdint>
#include <vector>

#include "db/api.hpp"

namespace wtc::db {

class ThreadOpLog final : public NotificationSink {
 public:
  explicit ThreadOpLog(NotificationSink* next = nullptr) : next_(next) {}

  void on_api_event(const ApiEvent& event) override;

  /// All retained ops of `thread`, oldest first.
  [[nodiscard]] const std::vector<ApiEvent>& ops(std::uint32_t thread) const;

  /// Compacts ops with `time <= attested_up_to` down to one state-summary
  /// op per (table, record). Called by the attester after a clean slice.
  void advance_watermark(std::uint32_t thread, sim::Time attested_up_to);

  /// Drops the thread's log (after a completed heal: the rebuilt state is
  /// the new baseline).
  void clear_thread(std::uint32_t thread);

  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::size_t thread_count() const noexcept { return logs_.size(); }

 private:
  struct PerThread {
    std::vector<ApiEvent> ops;
    sim::Time watermark = 0;
  };

  NotificationSink* next_;
  std::vector<PerThread> logs_;
  std::uint64_t recorded_ = 0;
  /// Compaction scratch, reused across advance_watermark calls so the
  /// attestation hot path allocates only when a log outgrows it.
  std::vector<ApiEvent> scratch_;
};

}  // namespace wtc::db
