#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/node.hpp"
#include "sim/scheduler.hpp"

namespace wtc::sim {
namespace {

TEST(Scheduler, FiresInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(30, [&]() { order.push_back(3); });
  sched.schedule_at(10, [&]() { order.push_back(1); });
  sched.schedule_at(20, [&]() { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30u);
}

TEST(Scheduler, FifoTieBreakAtSameInstant) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(7, [&order, i]() { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancelPreventsFiring) {
  Scheduler sched;
  bool fired = false;
  const EventId id = sched.schedule_at(5, [&]() { fired = true; });
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));  // double cancel
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelAfterFireReturnsFalse) {
  Scheduler sched;
  const EventId id = sched.schedule_at(1, []() {});
  sched.run();
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, RunUntilAdvancesClockWithoutOvershooting) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(10, [&]() { ++fired; });
  sched.schedule_at(100, [&]() { ++fired; });
  sched.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 50u);
  sched.run_until(100);
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, RunUntilIgnoresCancelledEventAtDeadlineCheck) {
  // Regression: run_until's deadline check used to look at heap_.front()
  // without skipping tombstones. A cancelled event inside the horizon
  // sitting at the heap top let step() fire the next LIVE event even when
  // that event lay past the deadline — overshooting both the event and
  // the clock.
  Scheduler sched;
  int fired = 0;
  const EventId cancelled = sched.schedule_at(5, [&]() { ++fired; });
  sched.schedule_at(100, [&]() { ++fired; });
  ASSERT_TRUE(sched.cancel(cancelled));

  sched.run_until(50);
  EXPECT_EQ(fired, 0);       // the t=100 event must NOT have fired
  EXPECT_EQ(sched.now(), 50u);  // and the clock must not overshoot

  sched.run_until(100);      // the live event still fires on time
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 100u);
}

TEST(Scheduler, RunUntilSkipsTombstoneRunAtDeadline) {
  // Same hazard with a pile of tombstones: all inside the horizon, one
  // live event beyond it.
  Scheduler sched;
  int fired = 0;
  std::vector<EventId> doomed;
  for (Time t = 1; t <= 10; ++t) {
    doomed.push_back(sched.schedule_at(t, [&]() { ++fired; }));
  }
  sched.schedule_at(200, [&]() { ++fired; });
  for (const EventId id : doomed) {
    ASSERT_TRUE(sched.cancel(id));
  }
  EXPECT_EQ(sched.pending_events(), 1u);

  sched.run_until(150);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.now(), 150u);
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, EventsScheduledFromEventsRun) {
  Scheduler sched;
  int depth = 0;
  std::function<void()> recurse = [&]() {
    if (++depth < 10) {
      sched.schedule_after(1, recurse);
    }
  };
  sched.schedule_after(1, recurse);
  sched.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sched.now(), 10u);
}

TEST(Scheduler, PastTimestampsClampToNow) {
  Scheduler sched;
  Time seen = 1234;
  sched.schedule_at(100, [&sched, &seen]() {
    sched.schedule_at(5, [&sched, &seen]() { seen = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(seen, 100u);
}

TEST(Scheduler, StopBreaksRun) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(1, [&]() {
    ++fired;
    sched.stop();
  });
  sched.schedule_at(2, [&]() { ++fired; });
  sched.run();
  EXPECT_EQ(fired, 1);
  sched.run();
  EXPECT_EQ(fired, 2);
}

// --- slot store: callables live beside the heap, in reusable slots ---

TEST(Scheduler, CapturesAreReleasedAfterTheCallableFires) {
  Scheduler sched;
  auto token = std::make_shared<int>(0);
  long use_count_inside = 0;
  sched.schedule_at(5, [token, &use_count_inside]() {
    use_count_inside = token.use_count();
  });
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(sched.step());
  EXPECT_EQ(use_count_inside, 2);  // alive while it runs
  EXPECT_EQ(token.use_count(), 1);  // released once it returned
}

TEST(Scheduler, CancelledCapturesAreReleasedWhenTheTombstoneIsPurged) {
  Scheduler sched;
  auto token = std::make_shared<int>(0);
  const EventId id = sched.schedule_at(5, [token]() {});
  sched.schedule_at(10, []() {});
  ASSERT_TRUE(sched.cancel(id));
  // Cancelling only marks the key; the callable goes when it surfaces.
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(sched.step());  // purges the tombstone, fires the t=10 event
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sched.now(), 10u);
}

TEST(Scheduler, SlotReusedAfterCancelNeverFiresTheOldCallable) {
  Scheduler sched;
  std::vector<int> fired;
  std::vector<EventId> cancelled;
  // Each round cancels an event, lets its tombstone surface (freeing its
  // slot), and schedules a new event into that slot.
  for (int round = 0; round < 50; ++round) {
    const EventId dead = sched.schedule_after(1, [&fired]() { fired.push_back(-1); });
    ASSERT_TRUE(sched.cancel(dead));
    cancelled.push_back(dead);
    sched.schedule_after(2, [&fired, round]() { fired.push_back(round); });
    ASSERT_TRUE(sched.step());  // purges `dead`, fires this round's event
    EXPECT_EQ(sched.pending_events(), 0u);
  }
  std::vector<int> expected;
  for (int round = 0; round < 50; ++round) {
    expected.push_back(round);
  }
  EXPECT_EQ(fired, expected);
  for (const EventId id : cancelled) {
    EXPECT_FALSE(sched.cancel(id));  // a reused slot does not revive the id
  }
}

TEST(Scheduler, FifoTieBreakHoldsOverTenThousandEventsWithCancels) {
  Scheduler sched;
  constexpr std::size_t kEvents = 10'000;
  std::vector<std::size_t> order;
  std::vector<EventId> ids(kEvents);
  std::vector<bool> live(kEvents, true);
  for (std::size_t i = 0; i < kEvents; ++i) {
    ids[i] = sched.schedule_at(7, [&, i]() {
      order.push_back(i);
      // Every tenth event cancels its successor from inside the run.
      if (i % 10 == 0 && i + 1 < kEvents && live[i + 1]) {
        EXPECT_TRUE(sched.cancel(ids[i + 1]));
        live[i + 1] = false;
      }
    });
    // Interleaved with scheduling: cancel the event scheduled five back.
    if (i % 7 == 6) {
      EXPECT_TRUE(sched.cancel(ids[i - 5]));
      live[i - 5] = false;
    }
  }
  // Cancel-from-inside targets are known only while running; replay that
  // rule over the schedule-time survivors to get the expected order.
  std::vector<bool> survives = live;
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < kEvents; ++i) {
    if (!survives[i]) {
      continue;
    }
    expected.push_back(i);
    if (i % 10 == 0 && i + 1 < kEvents) {
      survives[i + 1] = false;
    }
  }
  sched.run();
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(sched.empty());
  EXPECT_EQ(sched.now(), 7u);
}

class Echo : public Process {
 public:
  void on_message(const Message& message) override {
    received.push_back(message);
    if (message.type == 1) {
      Message reply;
      reply.from = pid();
      reply.type = 2;
      reply.args = message.args;
      node().send(message.from, std::move(reply));
    }
  }
  void on_stopped() override { stopped = true; }
  std::vector<Message> received;
  bool stopped = false;
};

TEST(Node, SpawnDeliversStartAndMessages) {
  Scheduler sched;
  Node node(sched);
  auto a = std::make_shared<Echo>();
  auto b = std::make_shared<Echo>();
  const ProcessId pa = node.spawn("a", a);
  const ProcessId pb = node.spawn("b", b);
  EXPECT_TRUE(node.alive(pa));
  EXPECT_EQ(node.name_of(pb), "b");

  Message m;
  m.from = pa;
  m.type = 1;
  m.args = {42};
  node.send(pb, m);
  sched.run();
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(b->received[0].args[0], 42u);
  ASSERT_EQ(a->received.size(), 1u);  // echo reply
  EXPECT_EQ(a->received[0].type, 2u);
}

TEST(Node, MessagesToDeadProcessesAreDropped) {
  Scheduler sched;
  Node node(sched);
  auto a = std::make_shared<Echo>();
  const ProcessId pa = node.spawn("a", a);
  node.send(pa, Message{.from = 0, .type = 9, .args = {}});
  node.kill(pa);
  EXPECT_TRUE(a->stopped);
  sched.run();
  EXPECT_TRUE(a->received.empty());
  EXPECT_FALSE(node.alive(pa));
}

class TimerProc : public Process {
 public:
  void on_start() override {
    schedule_after(10, [this]() { ++ticks; });
    schedule_after(20, [this]() { ++ticks; });
  }
  int ticks = 0;
};

TEST(Node, TimersDieWithProcess) {
  Scheduler sched;
  Node node(sched);
  auto p = std::make_shared<TimerProc>();
  const ProcessId pid = node.spawn("t", p);
  sched.run_until(12);
  EXPECT_EQ(p->ticks, 1);
  node.kill(pid);
  sched.run();
  EXPECT_EQ(p->ticks, 1);  // the 20us timer must not fire
}

TEST(Node, RespawnedProcessDoesNotSeeOldTimers) {
  Scheduler sched;
  Node node(sched);
  auto p = std::make_shared<TimerProc>();
  const ProcessId pid1 = node.spawn("t", p);
  sched.run_until(1);
  node.kill(pid1);
  p->ticks = 0;
  node.spawn("t", p);  // same object, new incarnation
  sched.run_until(50);
  EXPECT_EQ(p->ticks, 2);  // only the new incarnation's two timers
}

/// Kills itself from inside its own callback, then touches its members:
/// the Node must keep it alive until that callback returns.
class SelfKiller : public Process {
 public:
  explicit SelfKiller(bool& destroyed) : destroyed_(destroyed) {}
  ~SelfKiller() override { destroyed_ = true; }

  void on_start() override {
    if (kill_in_timer) {
      schedule_after(10, [this]() { kill_self(); });
    }
  }
  void on_message(const Message&) override { kill_self(); }

  bool kill_in_timer = false;

 private:
  void kill_self() {
    node().kill(pid());
    // Still inside the callback: the object must not be gone yet.
    alive_after_kill_ = !destroyed_;
    EXPECT_TRUE(alive_after_kill_);
  }

  bool& destroyed_;
  bool alive_after_kill_ = false;
};

TEST(Node, ProcessKilledInItsOwnTimerLivesUntilTheCallbackReturns) {
  bool destroyed = false;  // declared first: outlives the node
  Scheduler sched;
  Node node(sched);
  {
    auto p = std::make_shared<SelfKiller>(destroyed);
    p->kill_in_timer = true;
    node.spawn("k", p);
  }  // the node now holds the only reference
  sched.run();
  EXPECT_TRUE(destroyed);  // released once the timer callback returned
  EXPECT_EQ(node.alive_count(), 0u);
}

TEST(Node, ProcessKilledInItsOwnOnMessageLivesUntilTheCallbackReturns) {
  bool destroyed = false;  // declared first: outlives the node
  Scheduler sched;
  Node node(sched);
  ProcessId pid = kNoProcess;
  {
    auto p = std::make_shared<SelfKiller>(destroyed);
    pid = node.spawn("k", p);
  }
  node.send(pid, Message{.from = 0, .type = 1, .args = {1, 2, 3}});
  sched.run();
  EXPECT_TRUE(destroyed);
  EXPECT_EQ(node.alive_count(), 0u);
}

/// Logs its lifecycle into a shared journal; kills itself from a timer or
/// from on_message, then notes that its callback is returning.
class JournalingSelfKiller : public Process {
 public:
  explicit JournalingSelfKiller(std::vector<std::string>& journal)
      : journal_(journal) {}
  ~JournalingSelfKiller() override { journal_.push_back("destroyed"); }

  void on_start() override {
    if (kill_in_timer) {
      schedule_after(10, [this]() { kill_self("timer"); });
    }
  }
  void on_message(const Message&) override { kill_self("message"); }
  void on_stopped() override { journal_.push_back("stopped"); }

  bool kill_in_timer = false;

 private:
  void kill_self(const char* from) {
    journal_.push_back(std::string("kill from ") + from);
    EXPECT_TRUE(node().kill(pid()));
    EXPECT_FALSE(node().kill(pid()));  // already dead: no second on_stopped
    journal_.push_back("callback returns");
  }

  std::vector<std::string>& journal_;
};

/// Runs a self-killing process whose last reference the node holds, with a
/// plain event queued right behind the kill, and returns the journal.
std::vector<std::string> self_kill_journal(bool in_timer) {
  std::vector<std::string> journal;  // declared first: outlives the node
  Scheduler sched;
  Node node(sched);
  ProcessId pid = kNoProcess;
  {
    auto p = std::make_shared<JournalingSelfKiller>(journal);
    p->kill_in_timer = in_timer;
    pid = node.spawn("k", p);
  }
  if (!in_timer) {
    node.send(pid, Message{.from = 0, .type = 1, .args = {}});
  }
  sched.run_until(0);  // on_start arms the timer
  const Time kill_at = in_timer ? 10 : Node::kDefaultIpcDelay;
  sched.schedule_at(kill_at, [&journal]() { journal.push_back("next event"); });
  sched.run();
  EXPECT_EQ(node.alive_count(), 0u);
  EXPECT_FALSE(node.alive(pid));
  return journal;
}

TEST(Node, SelfKillReleasesTheProcessRightAfterItsTimerReturns) {
  EXPECT_EQ(self_kill_journal(true),
            (std::vector<std::string>{"kill from timer", "stopped",
                                      "callback returns", "destroyed",
                                      "next event"}));
}

TEST(Node, SelfKillReleasesTheProcessRightAfterItsOnMessageReturns) {
  EXPECT_EQ(self_kill_journal(false),
            (std::vector<std::string>{"kill from message", "stopped",
                                      "callback returns", "destroyed",
                                      "next event"}));
}

/// A process whose timers the test arms from outside.
class ArmedProcess : public Process {
 public:
  void arm(Duration delay, int tag) {
    schedule_after(delay, [this, tag]() { fired.push_back(tag); });
  }
  void on_start() override { fired.push_back(0); }
  void on_message(const Message& message) override {
    fired.push_back(static_cast<int>(message.args[0]));
  }
  std::vector<int> fired;
};

TEST(Node, TimerArmedBeforeKillAndRespawnStaysInert) {
  Scheduler sched;
  Node node(sched);
  auto p = std::make_shared<ArmedProcess>();
  const ProcessId first = node.spawn("p", p);
  sched.run();  // on_start
  p->arm(20, 1);
  node.kill(first);
  const ProcessId second = node.spawn("p", p);  // same object, new incarnation
  EXPECT_NE(second, first);
  sched.run_until(5);  // the respawn's on_start
  p->arm(20, 2);
  sched.run();
  // The first life's timer never fires, even though the object is alive
  // again; the second life's does.
  EXPECT_EQ(p->fired, (std::vector<int>{0, 0, 2}));
}

TEST(Node, SameTimeStartTimerAndDeliveryFireInEventIdOrder) {
  Scheduler sched;
  Node node(sched);
  auto a = std::make_shared<ArmedProcess>();
  auto b = std::make_shared<ArmedProcess>();
  const ProcessId pa = node.spawn("a", a);
  sched.run();
  std::vector<std::string> order;
  // At t=100, one plain event schedules a delivery, a timer, a spawn's
  // start and a second delivery, all for the same instant.
  sched.schedule_at(100, [&]() {
    node.send(pa, Message{.from = 0, .type = 1, .args = {11}}, 0);
    a->arm(0, 12);
    node.spawn("b", b);
    node.send(pa, Message{.from = 0, .type = 1, .args = {13}}, 0);
    const EventId last = sched.schedule_after(0, [&]() {
      order.push_back("plain");
      EXPECT_EQ(a->fired, (std::vector<int>{0, 11, 12, 13}));
      EXPECT_EQ(b->fired, (std::vector<int>{0}));
    });
    EXPECT_EQ(sched.pending_events(), 5u);
    EXPECT_GT(last, 0u);
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<std::string>{"plain"}));
  EXPECT_EQ(sched.now(), 100u);
}

TEST(Scheduler, CancelReturnsFalseForFiredCancelledAndUnknownIds) {
  Scheduler sched;
  const EventId fired = sched.schedule_at(1, []() {});
  const EventId cancelled = sched.schedule_at(2, []() {});
  const EventId live = sched.schedule_at(3, []() {});
  EventId running = 0;
  bool cancel_running = true;
  running = sched.schedule_at(1, [&]() { cancel_running = sched.cancel(running); });
  ASSERT_TRUE(sched.cancel(cancelled));
  ASSERT_TRUE(sched.step());  // fires `fired`
  ASSERT_TRUE(sched.step());  // fires `running`, which tries to cancel itself
  EXPECT_FALSE(cancel_running);
  EXPECT_FALSE(sched.cancel(fired));
  EXPECT_FALSE(sched.cancel(cancelled));
  EXPECT_FALSE(sched.cancel(0));      // never issued
  EXPECT_FALSE(sched.cancel(99999));  // not issued yet
  EXPECT_TRUE(sched.cancel(live));
  sched.run();
  EXPECT_EQ(sched.events_fired(), 2u);
}

TEST(Scheduler, OversizedCallablesStillFireAndRelease) {
  Scheduler sched;
  auto token = std::make_shared<int>(0);
  std::array<std::uint64_t, 32> payload{};  // beyond the inline capacity
  payload[31] = 7;
  std::uint64_t seen = 0;
  static_assert(!Scheduler::kStoredInline<decltype([payload, token]() {})>);
  sched.schedule_at(5, [payload, token, &seen]() { seen = payload[31]; });
  EXPECT_EQ(token.use_count(), 2);
  sched.run();
  EXPECT_EQ(seen, 7u);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(Node, DuplicatedAndOriginalDeliveriesCarryTheSameArgs) {
  Scheduler sched;
  Node node(sched);
  auto a = std::make_shared<Echo>();
  const ProcessId pa = node.spawn("a", a);
  ChannelFaultsConfig faults;
  faults.duplicate_probability = 1.0;
  node.set_channel_faults(faults);
  node.send(pa, Message{.from = 0, .type = 9, .args = {7, 8, 9}});
  sched.run();
  ASSERT_EQ(a->received.size(), 2u);
  for (const Message& m : a->received) {
    EXPECT_EQ(m.args, (MessageArgs{7, 8, 9}));
  }
  const LinkCounters link = node.link_counters(0, pa);
  EXPECT_EQ(link.sent, 1u);
  EXPECT_EQ(link.duplicated, 1u);
  EXPECT_EQ(link.delivered, 2u);
}

TEST(Node, BookkeepingCounters) {
  Scheduler sched;
  Node node(sched);
  EXPECT_EQ(node.spawned_count(), 0u);
  const ProcessId a = node.spawn("a", std::make_shared<Echo>());
  node.spawn("b", std::make_shared<Echo>());
  EXPECT_EQ(node.spawned_count(), 2u);
  EXPECT_EQ(node.alive_count(), 2u);
  node.kill(a);
  EXPECT_EQ(node.alive_count(), 1u);
  EXPECT_EQ(node.spawned_count(), 2u);
  EXPECT_EQ(node.name_of(a), "");
  EXPECT_FALSE(node.kill(a));  // double kill
}

TEST(Cpu, SerializesWork) {
  Cpu cpu;
  EXPECT_EQ(cpu.book(100, 50), 150u);
  EXPECT_EQ(cpu.book(100, 10), 160u);  // queues behind the first booking
  EXPECT_EQ(cpu.book(500, 10), 510u);  // idle gap: starts immediately
  EXPECT_EQ(cpu.total_booked(), 70u);
}

TEST(Cpu, ContentionGrowsLatency) {
  Cpu cpu;
  // Ten tasks of 100us arriving at the same instant: the last one ends at
  // 1000us even though each only needs 100us.
  Time last = 0;
  for (int i = 0; i < 10; ++i) {
    last = cpu.book(0, 100);
  }
  EXPECT_EQ(last, 1000u);
}

}  // namespace
}  // namespace wtc::sim
