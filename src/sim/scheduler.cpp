#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace wtc::sim {

Scheduler::~Scheduler() {
  for (const Key& key : heap_) {
    release(static_cast<std::uint32_t>(key.order & kSlotMask));
  }
}

void Scheduler::grow() {
  if (next_id_ >= kIdLimit) {
    throw std::overflow_error("sim::Scheduler: event id space exhausted");
  }
  if (!free_slots_.empty()) {
    return;
  }
  const std::size_t base = chunks_.size() * kChunkSlots;
  if (base + kChunkSlots > kSlotMask + 1) {
    throw std::length_error("sim::Scheduler: too many pending events");
  }
  chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  // Highest index first, so the free list hands out the lowest one next.
  for (std::size_t i = kChunkSlots; i-- > 0;) {
    free_slots_.push_back(static_cast<std::uint32_t>(base + i));
  }
}

void Scheduler::release(std::uint32_t index) noexcept {
  Slot& s = slot(index);
  s.ops->destroy(s.storage);
  s.ops = nullptr;
  s.cancelled = false;
  free_slots_.push_back(index);
}

EventId Scheduler::push(Time t, std::uint32_t index) {
  const EventId id = next_id_++;
  const Key key{std::max(t, now_), (id << kSlotBits) | index};
  // Sift up: move parents down into the hole until the key's place is found.
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / 4;
    if (!before(key, heap_[parent])) {
      break;
    }
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
  obs::gauge_max(obs::Gauge::sched_max_pending_events,
                 heap_.size() - tombstones_);
  return id;
}

bool Scheduler::cancel(EventId id) {
  // Rare path: find the entry and tombstone its slot. The key itself is
  // untouched, so the heap order holds; the tombstone and its callable are
  // discarded when it surfaces at the top.
  for (const Key& key : heap_) {
    if ((key.order >> kSlotBits) == id) {
      Slot& s = slot(static_cast<std::uint32_t>(key.order & kSlotMask));
      if (s.cancelled) {
        return false;  // double cancel
      }
      s.cancelled = true;
      ++tombstones_;
      obs::count(obs::Counter::sched_events_cancelled);
      return true;
    }
  }
  return false;  // already fired or never existed
}

Scheduler::Key Scheduler::pop() noexcept {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) {
    return top;
  }
  // Sift down from the root: move the least child up into the hole until
  // `last` fits there.
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= size) {
      break;
    }
    const std::size_t end = std::min(first + 4, size);
    std::size_t least = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (before(heap_[child], heap_[least])) {
        least = child;
      }
    }
    if (!before(heap_[least], last)) {
      break;
    }
    heap_[hole] = heap_[least];
    hole = least;
  }
  heap_[hole] = last;
  return top;
}

void Scheduler::discard_cancelled_top() {
  while (!heap_.empty() &&
         slot(static_cast<std::uint32_t>(heap_.front().order & kSlotMask))
             .cancelled) {
    release(static_cast<std::uint32_t>(pop().order & kSlotMask));
    --tombstones_;
    obs::count(obs::Counter::sched_tombstones_purged);
  }
}

bool Scheduler::step() {
  discard_cancelled_top();
  if (heap_.empty()) {
    return false;
  }
  const Key key = pop();
  now_ = key.time;
  ++fired_;
  obs::count(obs::Counter::sched_events_fired);
  // The callable runs in place: chunks never move, and its slot is not on
  // the free list until it returns, so events it schedules land elsewhere.
  // Its captures are released right after it returns (or throws).
  struct Release {
    Scheduler& scheduler;
    std::uint32_t index;
    ~Release() { scheduler.release(index); }
  } done{*this, static_cast<std::uint32_t>(key.order & kSlotMask)};
  Slot& s = slot(done.index);
  s.ops->invoke(s.storage);
  return true;
}

void Scheduler::run() {
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Scheduler::run_until(Time t) {
  stopped_ = false;
  for (;;) {
    // The deadline check must look at the next LIVE event: a cancelled
    // event at the heap top with time <= t must not admit a step() that
    // would fire a live event past the deadline (and drag now_ with it).
    discard_cancelled_top();
    if (stopped_ || heap_.empty() || heap_.front().time > t) {
      break;
    }
    step();
  }
  now_ = std::max(now_, t);
}

}  // namespace wtc::sim
