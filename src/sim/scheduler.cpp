#include "sim/scheduler.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace wtc::sim {

std::uint32_t Scheduler::store(Callback cb) {
  if (free_slots_.empty()) {
    slots_.push_back(std::move(cb));
    return static_cast<std::uint32_t>(slots_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  slots_[slot] = std::move(cb);
  return slot;
}

EventId Scheduler::schedule_at(Time t, Callback cb) {
  const EventId id = next_id_++;
  heap_.push_back(Key{std::max(t, now_), id, store(std::move(cb)), false});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  obs::gauge_max(obs::Gauge::sched_max_pending_events,
                 heap_.size() - tombstones_);
  return id;
}

bool Scheduler::cancel(EventId id) {
  // Rare path: find the entry and tombstone it in place. Mutating the
  // non-key fields leaves the heap order intact; the tombstone and its
  // callable are discarded when it surfaces at the top.
  for (Key& key : heap_) {
    if (key.id == id) {
      if (key.cancelled) {
        return false;  // double cancel
      }
      key.cancelled = true;
      ++tombstones_;
      obs::count(obs::Counter::sched_events_cancelled);
      return true;
    }
  }
  return false;  // already fired or never existed
}

Scheduler::Key Scheduler::pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  return key;
}

void Scheduler::discard_cancelled_top() {
  while (!heap_.empty() && heap_.front().cancelled) {
    const Key key = pop();
    slots_[key.slot] = nullptr;
    free_slots_.push_back(key.slot);
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
  // Move the callable out before freeing its slot: the callback may
  // schedule events that reuse the slot or grow slots_. Its captures are
  // released when `cb` goes out of scope, right after it returns.
  Callback cb = std::move(slots_[key.slot]);
  free_slots_.push_back(key.slot);
  cb();
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
