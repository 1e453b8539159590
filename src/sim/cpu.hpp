// Single-CPU contention model.
//
// The paper's controller runs client threads and the audit process on one
// UltraSPARC-2; the 160 ms -> 270 ms call-setup-time increase under audits
// (Table 3) is contention, not added per-call work. This serializing
// resource reproduces that: every consumer of CPU time books work here and
// resumes at the returned completion time.
#pragma once

#include <algorithm>

#include "sim/time.hpp"

namespace wtc::sim {

class Cpu {
 public:
  /// Books `work` microseconds of CPU starting no earlier than `now`;
  /// returns the completion instant. Work is serialized FIFO.
  Time book(Time now, Duration work) noexcept {
    const Time start = std::max(now, busy_until_);
    busy_until_ = start + static_cast<Time>(work);
    total_booked_ += static_cast<Time>(work);
    return busy_until_;
  }

  /// Total CPU microseconds ever booked (utilization accounting).
  [[nodiscard]] Time total_booked() const noexcept { return total_booked_; }

 private:
  Time busy_until_ = 0;
  Time total_booked_ = 0;
};

}  // namespace wtc::sim
