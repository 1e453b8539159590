// Deterministic single-threaded discrete-event scheduler.
//
// Every active entity in the reproduction (call-processing threads, audit
// elements, the manager's heartbeat, injectors) advances by scheduling
// callbacks here. Two events at the same instant fire in scheduling order
// (FIFO tie-break), which keeps runs bit-reproducible across platforms.
//
// The heap is a 4-ary heap of 16-byte keys {time, id << 24 | slot}; each
// event's callable sits in a slot beside it and never moves while the heap
// sifts. A slot stores its callable inline — a process timer, a message
// delivery with its Message, or any other closure up to kInlineBytes — so
// scheduling an event allocates nothing once the slot store has grown to
// the run's peak pending count; freed slots go on a free list and are
// reused. Slots live in fixed-size chunks that never move, so a callable
// runs in place even when it schedules more events.
//
// Cancellation sets the slot's tombstone flag instead of keeping a
// pending-id hash set: schedule_at/step — the hot path, fired millions of
// times per run — do no hashing at all; cancel() (rare: the only callers
// are tests and explicit teardown paths) scans the heap for the id, and
// step() discards tombstones as they surface, releasing their callables
// and slots only then.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace wtc::sim {

/// Handle for cancelling a scheduled event. Value 0 is never issued.
using EventId = std::uint64_t;

class Scheduler {
 public:
  /// Bytes of closure a slot holds inline. Sized for the largest hot-path
  /// event, a message delivery carrying its Message (Node checks the fit
  /// of its deliveries and process timers at compile time). A larger or over-aligned callable is boxed
  /// on the heap instead; nothing on the hot path is.
  static constexpr std::size_t kInlineBytes = 120;

  /// True when `Fn` is stored in the slot itself, with no heap box.
  template <typename Fn>
  static constexpr bool kStoredInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::uint64_t);

  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  /// Destroys the callables of events still pending (fired ones are gone).
  ~Scheduler();

  /// Current virtual time. Monotone non-decreasing.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` (any move-constructible `void()` callable) at absolute
  /// time `t` (>= now, else fires "now").
  template <typename Fn>
  EventId schedule_at(Time t, Fn&& fn);

  /// Schedules `fn` after `delay` microseconds.
  template <typename Fn>
  EventId schedule_after(Time delay, Fn&& fn) {
    return schedule_at(now_ + delay, std::forward<Fn>(fn));
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
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
  /// Ids must fit the key's upper 40 bits.
  static constexpr EventId kIdLimit = EventId{1} << (64 - kSlotBits);
  static constexpr std::size_t kChunkBits = 6;  // 64 slots per chunk
  static constexpr std::size_t kChunkSlots = std::size_t{1} << kChunkBits;

  struct Key {
    Time time;
    std::uint64_t order;  // id << kSlotBits | slot; the id is the FIFO tie-break
  };
  static_assert(sizeof(Key) == 16);
  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    return a.time != b.time ? a.time < b.time : a.order < b.order;
  }

  /// Type-erased operations on a slot's stored callable.
  struct Ops {
    void (*invoke)(void* storage);
    void (*destroy)(void* storage) noexcept;
  };
  template <typename Fn>
  static constexpr Ops kOps{
      [](void* storage) { (*static_cast<Fn*>(storage))(); },
      [](void* storage) noexcept { static_cast<Fn*>(storage)->~Fn(); }};

  struct Slot {
    const Ops* ops = nullptr;  // the stored callable's ops; null when free
    bool cancelled = false;    // tombstone: discarded when its key surfaces
    alignas(std::uint64_t) unsigned char storage[kInlineBytes];
  };

  [[nodiscard]] Slot& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkBits][index & (kChunkSlots - 1)];
  }
  /// Pops a free slot index, growing the store by one chunk when none is
  /// free.
  std::uint32_t acquire_slot() {
    if (free_slots_.empty() || next_id_ >= kIdLimit) {
      grow();
    }
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  /// Adds a chunk of free slots; throws once the id or slot space (the
  /// key's 40 and 24 bits) is exhausted.
  void grow();
  /// Destroys slot `index`'s callable and returns the slot to the free list.
  void release(std::uint32_t index) noexcept;
  /// Issues the next id, keys slot `index` under it at `t` and sifts the
  /// key up the heap.
  EventId push(Time t, std::uint32_t index);
  /// Pops `heap_`'s top key (the heap must be non-empty).
  Key pop() noexcept;
  /// Pops cancelled keys off the heap top, releasing their callables and
  /// slots, so heap_.front() (if any) is the earliest live event.
  void discard_cancelled_top();

  std::vector<Key> heap_;  // 4-ary min-heap on (time, order)
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;  // slot indexes not in use
  std::size_t tombstones_ = 0;  // cancelled entries still inside heap_
  Time now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
};

template <typename Fn>
EventId Scheduler::schedule_at(Time t, Fn&& fn) {
  using Stored = std::decay_t<Fn>;
  if constexpr (kStoredInline<Stored>) {
    const std::uint32_t index = acquire_slot();
    Slot& s = slot(index);
    try {
      ::new (static_cast<void*>(s.storage)) Stored(std::forward<Fn>(fn));
    } catch (...) {
      free_slots_.push_back(index);
      throw;
    }
    s.ops = &kOps<Stored>;
    return push(t, index);
  } else {
    // Off the hot path: too large to sit in a slot, so it sits behind one.
    return schedule_at(t, [box = std::make_unique<Stored>(std::forward<Fn>(fn))]() {
      (*box)();
    });
  }
}

}  // namespace wtc::sim
