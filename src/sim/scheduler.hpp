// Deterministic single-threaded discrete-event scheduler.
//
// Every active entity in the reproduction (call-processing threads, audit
// elements, the manager's heartbeat, injectors) advances by scheduling
// callbacks here. Two events at the same instant fire in scheduling order
// (FIFO tie-break), which keeps runs bit-reproducible across platforms.
//
// The heap orders small fixed-size keys {time, id, slot}; each event's
// callable sits in a slot store beside it and never moves while the heap
// sifts. Freed slots go on a free list, so a steady-state run reuses the
// same slots and the store stops growing at the peak pending count.
//
// Cancellation uses in-place tombstones instead of a pending-id hash set:
// schedule_at/step — the hot path, fired millions of times per run — do
// no hashing at all; cancel() (rare: the only callers are tests and
// explicit teardown paths) scans the heap, marks the key cancelled, and
// step() discards tombstones as they surface, releasing their callables
// and slots only then.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace wtc::sim {

/// Handle for cancelling a scheduled event. Value 0 is never issued.
using EventId = std::uint64_t;

class Scheduler {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time. Monotone non-decreasing.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `t` (>= now, else fires "now").
  EventId schedule_at(Time t, Callback cb);

  /// Schedules `cb` after `delay` microseconds.
  EventId schedule_after(Time delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Returns false if it already fired, was
  /// already cancelled, or never existed. O(pending) — cancellation is
  /// rare; the hot path pays nothing for supporting it.
  bool cancel(EventId id);

  /// Runs events until the queue drains or `stop()` is called.
  void run();

  /// Runs all events with timestamp <= `t`, then sets now() to `t`.
  /// Cancelled events never extend the horizon: the deadline is checked
  /// against the earliest *live* event.
  void run_until(Time t);

  /// Fires the single next live event; returns false if the queue holds
  /// nothing but tombstones (or is empty).
  bool step();

  /// Makes the innermost run()/run_until() return after the current event.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] bool empty() const noexcept {
    return heap_.size() == tombstones_;
  }
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return heap_.size() - tombstones_;
  }
  [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

 private:
  struct Key {
    Time time;
    EventId id;          // doubles as the FIFO tie-break
    std::uint32_t slot;  // index of the callable in slots_
    bool cancelled;      // tombstone: discarded when it surfaces
  };
  static_assert(sizeof(Key) == 24);
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      return a.time != b.time ? a.time > b.time : a.id > b.id;
    }
  };

  /// Moves `cb` into a free slot (reusing one when the free list has any)
  /// and returns its index.
  std::uint32_t store(Callback cb);
  /// Pops `heap_`'s top key (the heap must be non-empty).
  Key pop();
  /// Pops cancelled keys off the heap top, releasing their callables and
  /// slots, so heap_.front() (if any) is the earliest live event.
  void discard_cancelled_top();

  // Binary heap over `heap_` (std::push_heap/pop_heap) rather than a
  // std::priority_queue: cancel() needs to scan and mark entries in
  // place, which priority_queue's interface forbids.
  std::vector<Key> heap_;
  std::vector<Callback> slots_;           // callables, indexed by Key::slot
  std::vector<std::uint32_t> free_slots_;  // slots_ entries not in use
  std::size_t tombstones_ = 0;  // cancelled entries still inside heap_
  Time now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
};

}  // namespace wtc::sim
