// The unreliable-IPC fault model (sim::ChannelFaults) and the reliable
// delivery layer (sim::ReliableSender/Receiver) built on top of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "audit/messages.hpp"
#include "fuzz/harness.hpp"
#include "obs/metrics.hpp"
#include "sim/node.hpp"
#include "sim/reliable.hpp"

namespace wtc::sim {
namespace {

class Probe : public Process {
 public:
  void on_message(const Message& message) override {
    received.push_back(message);
    received_at.push_back(now());
  }
  std::vector<Message> received;
  std::vector<Time> received_at;
};

Message typed(ProcessId from, std::uint32_t type, std::vector<std::uint64_t> args = {}) {
  Message m;
  m.from = from;
  m.type = type;
  m.args.assign(args.begin(), args.end());
  return m;
}

TEST(ChannelFaults, DropsEverythingAtProbabilityOne) {
  Scheduler scheduler;
  Node node(scheduler);
  node.set_channel_faults({.drop_probability = 1.0});
  auto probe = std::make_shared<Probe>();
  const auto pid = node.spawn("probe", probe);

  for (int i = 0; i < 20; ++i) {
    node.send(pid, typed(kNoProcess, 7));
  }
  scheduler.run_until(kSecond);

  EXPECT_TRUE(probe->received.empty());
  const auto link = node.link_counters(kNoProcess, pid);
  EXPECT_EQ(link.sent, 20u);
  EXPECT_EQ(link.dropped, 20u);
  EXPECT_EQ(link.delivered, 0u);
  EXPECT_EQ(node.totals().dropped, 20u);
}

TEST(ChannelFaults, DuplicatesDeliverTwice) {
  Scheduler scheduler;
  Node node(scheduler);
  node.set_channel_faults({.duplicate_probability = 1.0});
  auto probe = std::make_shared<Probe>();
  const auto pid = node.spawn("probe", probe);

  node.send(pid, typed(kNoProcess, 9));
  scheduler.run_until(kSecond);

  EXPECT_EQ(probe->received.size(), 2u);
  const auto link = node.link_counters(kNoProcess, pid);
  EXPECT_EQ(link.sent, 1u);
  EXPECT_EQ(link.duplicated, 1u);
  EXPECT_EQ(link.delivered, 2u);
}

TEST(ChannelFaults, JitterIsSeededAndDeterministic) {
  const auto run = [](std::uint64_t seed) {
    Scheduler scheduler;
    Node node(scheduler);
    node.set_channel_faults(
        {.jitter_max = 10 * static_cast<Duration>(kMillisecond), .seed = seed});
    auto probe = std::make_shared<Probe>();
    const auto pid = node.spawn("probe", probe);
    for (int i = 0; i < 10; ++i) {
      node.send(pid, typed(kNoProcess, 1));
    }
    scheduler.run_until(kSecond);
    return probe->received_at;
  };

  const auto a = run(42);
  const auto b = run(42);
  const auto c = run(43);
  ASSERT_EQ(a.size(), 10u);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Jitter actually perturbs delivery beyond the base IPC delay.
  bool any_late = false;
  for (const Time t : a) {
    any_late |= t > static_cast<Time>(Node::kDefaultIpcDelay);
  }
  EXPECT_TRUE(any_late);
}

TEST(ChannelFaults, DeadLettersAreCountedNotSilent) {
  Scheduler scheduler;
  Node node(scheduler);
  auto probe = std::make_shared<Probe>();
  const auto pid = node.spawn("probe", probe);
  node.kill(pid);

  EXPECT_EQ(node.dead_letter_count(), 0u);
  node.send(pid, typed(kNoProcess, 3));
  node.send(pid, typed(kNoProcess, 4));
  scheduler.run_until(kSecond);

  EXPECT_EQ(node.dead_letter_count(), 2u);
  EXPECT_EQ(node.link_counters(kNoProcess, pid).dead_letters, 2u);
  EXPECT_TRUE(probe->received.empty());
}

/// A process pair exercising the reliable layer: the sender ships `count`
/// messages; the receiver unwraps, dedups, and records payloads.
class ReliablePeer : public Process {
 public:
  explicit ReliablePeer(ReliableConfig config = {}) : config_(config) {}

  void on_message(const Message& message) override {
    if (sender && sender->on_message(message)) {
      return;
    }
    if (ReliableReceiver::is_frame(message)) {
      if (auto inner = receiver.accept(message)) {
        delivered.push_back(*inner);
      }
    }
  }

  void start_sender(ProcessId to, std::uint32_t channel) {
    sender.emplace(*this, channel, [to]() { return to; }, config_);
  }

  ReliableConfig config_;
  std::optional<ReliableSender> sender;
  ReliableReceiver receiver{*this};
  std::vector<Message> delivered;
};

TEST(Reliable, DeliversExactlyOnceOverLossyDuplicatingChannel) {
  Scheduler scheduler;
  Node node(scheduler);
  node.set_channel_faults({.drop_probability = 0.3,
                           .duplicate_probability = 0.2,
                           .jitter_max = 5 * static_cast<Duration>(kMillisecond),
                           .seed = 7});

  // Enough attempts that 30% loss cannot plausibly exhaust the budget
  // (an attempt needs data AND ack through: ~0.51 failure each, ^12 per
  // message), with a gentle backoff so all retries fit the horizon.
  ReliableConfig config;
  config.retry_after = 50 * static_cast<Duration>(kMillisecond);
  config.backoff = 1.5;
  config.max_attempts = 12;
  auto sender = std::make_shared<ReliablePeer>(config);
  auto receiver = std::make_shared<ReliablePeer>();
  const auto sender_pid = node.spawn("sender", sender);
  const auto receiver_pid = node.spawn("receiver", receiver);
  sender->start_sender(receiver_pid, 1);

  constexpr int kCount = 50;
  scheduler.schedule_after(0, [&]() {
    for (int i = 0; i < kCount; ++i) {
      sender->sender->send(typed(sender_pid, 100, {static_cast<std::uint64_t>(i)}));
    }
  });
  scheduler.run_until(60 * kSecond);

  // Every payload arrives exactly once despite 30% drops + 20% dups.
  ASSERT_EQ(receiver->delivered.size(), kCount);
  std::vector<bool> seen(kCount, false);
  for (const auto& m : receiver->delivered) {
    EXPECT_EQ(m.type, 100u);
    EXPECT_EQ(m.from, sender_pid);  // inner `from` survives the framing
    ASSERT_EQ(m.args.size(), 1u);
    EXPECT_FALSE(seen[m.args[0]]);
    seen[m.args[0]] = true;
  }
  EXPECT_EQ(sender->sender->acked(), static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(sender->sender->in_flight(), 0u);
  EXPECT_GT(sender->sender->retries(), 0u);
  EXPECT_GT(receiver->receiver.duplicates_dropped(), 0u);
}

TEST(Reliable, BoundedAttemptsAbandonUnreachableReceiver) {
  Scheduler scheduler;
  Node node(scheduler);

  ReliableConfig config;
  config.max_attempts = 3;
  auto sender = std::make_shared<ReliablePeer>(config);
  const auto sender_pid = node.spawn("sender", sender);
  auto receiver = std::make_shared<ReliablePeer>();
  const auto receiver_pid = node.spawn("receiver", receiver);
  node.kill(receiver_pid);
  sender->start_sender(receiver_pid, 1);

  scheduler.schedule_after(0, [&]() {
    sender->sender->send(typed(sender_pid, 5));
  });
  scheduler.run_until(60 * kSecond);

  EXPECT_EQ(sender->sender->abandoned(), 1u);
  EXPECT_EQ(sender->sender->in_flight(), 0u);
  EXPECT_EQ(sender->sender->acked(), 0u);
  // First transmission + (max_attempts - 1) retries, all dead-lettered.
  EXPECT_EQ(sender->sender->sent(), 3u);
  EXPECT_EQ(node.dead_letter_count(), 3u);
}

TEST(Reliable, MalformedFramesDroppedWithoutAckOrOobRead) {
  Scheduler scheduler;
  Node node(scheduler);
  auto sender = std::make_shared<ReliablePeer>();
  const auto sender_pid = node.spawn("sender", sender);
  auto receiver = std::make_shared<ReliablePeer>();
  node.spawn("receiver", receiver);

  // Truncated frames: kReliableData with fewer than the 4 framing words.
  // Before validation, accept() indexed args[0..3] unconditionally — an
  // out-of-bounds read on exactly the input a faulty channel produces.
  for (std::size_t nargs = 0; nargs < 4; ++nargs) {
    const auto truncated =
        typed(sender_pid, kReliableData,
              std::vector<std::uint64_t>(nargs, 1));
    EXPECT_FALSE(receiver->receiver.accept(truncated).has_value());
  }
  // Wrong type is rejected too (accept is only defined on data frames).
  EXPECT_FALSE(
      receiver->receiver.accept(typed(sender_pid, 777, {1, 2, 3, 4}))
          .has_value());

  EXPECT_EQ(receiver->receiver.malformed(), 5u);
  EXPECT_EQ(receiver->receiver.accepted(), 0u);
  // No ack was ever sent back for garbage.
  scheduler.run_until(kSecond);
  EXPECT_TRUE(sender->delivered.empty());
  EXPECT_EQ(node.totals().sent, 0u);
}

TEST(Reliable, AckCancelsArmedRetryTimer) {
  Scheduler scheduler;
  Node node(scheduler);  // clean channel: ack arrives before first retry

  auto sender = std::make_shared<ReliablePeer>();
  const auto sender_pid = node.spawn("sender", sender);
  auto receiver = std::make_shared<ReliablePeer>();
  const auto receiver_pid = node.spawn("receiver", receiver);
  sender->start_sender(receiver_pid, 1);

  scheduler.schedule_after(0, [&]() {
    sender->sender->send(typed(sender_pid, 5));
  });
  scheduler.run_until(60 * kSecond);

  EXPECT_EQ(sender->sender->acked(), 1u);
  EXPECT_EQ(sender->sender->sent(), 1u);
  EXPECT_EQ(sender->sender->retries(), 0u);
  // The ack disarmed the pending retry instead of leaving it queued: the
  // scheduler drained completely (a leaked timer would also have fired as
  // a no-op, but cancellation removes it outright).
  EXPECT_TRUE(scheduler.empty());
}

TEST(Reliable, DestroyingSenderCancelsOutstandingRetryTimers) {
  Scheduler scheduler;
  Node node(scheduler);
  node.set_channel_faults({.drop_probability = 1.0});  // acks never arrive

  auto sender = std::make_shared<ReliablePeer>();
  const auto sender_pid = node.spawn("sender", sender);
  auto receiver = std::make_shared<ReliablePeer>();
  const auto receiver_pid = node.spawn("receiver", receiver);
  sender->start_sender(receiver_pid, 1);

  scheduler.schedule_after(0, [&]() {
    for (int i = 0; i < 5; ++i) {
      sender->sender->send(typed(sender_pid, 5));
    }
  });
  // Let the first transmissions and backoff timers arm, then destroy the
  // ReliableSender while its OWNER PROCESS is still alive. The armed
  // retry callbacks captured the sender raw; the incarnation guard does
  // not protect them (the process lives on), so before the fix they fired
  // into a destroyed object — heap-use-after-free under ASan.
  scheduler.schedule_after(100 * kMillisecond,
                           [&]() { sender->sender.reset(); });
  const std::size_t pending_before = scheduler.pending_events();
  scheduler.run_until(60 * kSecond);

  EXPECT_FALSE(sender->sender.has_value());
  EXPECT_TRUE(scheduler.empty());
  EXPECT_GT(pending_before, 0u);
}

TEST(Reliable, RetriesStopWhenOwnerDies) {
  Scheduler scheduler;
  Node node(scheduler);
  node.set_channel_faults({.drop_probability = 1.0});

  auto sender = std::make_shared<ReliablePeer>();
  const auto sender_pid = node.spawn("sender", sender);
  auto receiver = std::make_shared<ReliablePeer>();
  const auto receiver_pid = node.spawn("receiver", receiver);
  sender->start_sender(receiver_pid, 1);

  scheduler.schedule_after(0, [&]() {
    sender->sender->send(typed(sender_pid, 5));
  });
  scheduler.schedule_after(300 * kMillisecond, [&]() { node.kill(sender_pid); });
  scheduler.run_until(60 * kSecond);

  // The owner died mid-backoff: its retry timers were process-scoped, so
  // the transmission count froze instead of running out the budget.
  EXPECT_LT(sender->sender->sent(), 5u);
  EXPECT_EQ(sender->sender->abandoned(), 0u);
}

// --- message-args capacity: the largest frame in the tree fits inline ---

TEST(MessageCapacity, CfViolationFrameRoundTripsBitExact) {
  Scheduler scheduler;
  Node node(scheduler);
  auto sender = std::make_shared<ReliablePeer>();
  auto receiver = std::make_shared<ReliablePeer>();
  auto wire = std::make_shared<Probe>();
  const auto sender_pid = node.spawn("sender", sender);
  const auto receiver_pid = node.spawn("receiver", receiver);
  const auto wire_pid = node.spawn("wire", wire);
  sender->start_sender(receiver_pid, 3);

  // Every word at or near its type's extreme, so a narrowed or dropped
  // word shows.
  audit::CfViolation v;
  v.client = 0xFFFFFFFEu;
  v.thread = 0x89ABCDEFu;
  v.from_pc = 0xFFFFFFFFu;
  v.to_pc = 0x80000001u;
  v.time = 0xFEDCBA9876543210ull;
  v.source = audit::CfSource::Attestation;
  Message inner = audit::msg::make_cf_violation(v);
  inner.from = sender_pid;
  ASSERT_EQ(inner.args.size(), 6u);

  scheduler.schedule_after(0, [&]() {
    sender->sender->send(inner);
    sender->sender->send_to(wire_pid, inner);  // the raw frame, for inspection
  });
  // Short of the first retry: the wire never acks its copy.
  scheduler.run_until(100 * kMillisecond);

  ASSERT_EQ(wire->received.size(), 1u);
  const Message& frame = wire->received[0];
  EXPECT_EQ(frame.type, kReliableData);
  ASSERT_EQ(frame.args.size(), MessageArgs::kCapacity);  // 4 framing + 6 words
  EXPECT_EQ(frame.args[0], 3u);
  EXPECT_EQ(frame.args[2], inner.type);
  EXPECT_EQ(frame.args[3], sender_pid);
  EXPECT_TRUE(std::equal(inner.args.begin(), inner.args.end(), frame.args.begin() + 4));

  ASSERT_EQ(receiver->delivered.size(), 1u);
  const Message& got = receiver->delivered[0];
  EXPECT_EQ(got.type, inner.type);
  EXPECT_EQ(got.from, sender_pid);
  EXPECT_EQ(got.args, inner.args);
  const audit::CfViolation back = audit::msg::view_cf_violation(got);
  EXPECT_EQ(back.client, v.client);
  EXPECT_EQ(back.thread, v.thread);
  EXPECT_EQ(back.from_pc, v.from_pc);
  EXPECT_EQ(back.to_pc, v.to_pc);
  EXPECT_EQ(back.time, v.time);
  EXPECT_EQ(back.source, v.source);
  EXPECT_EQ(sender->sender->acked(), 1u);
}

TEST(MessageCapacity, GrowingPastCapacityThrowsAndNeverTruncates) {
  MessageArgs args{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const MessageArgs full = args;
  EXPECT_THROW(args.push_back(11), std::length_error);
  const std::array<std::uint64_t, 2> two{11, 12};
  EXPECT_THROW(args.append(two.begin(), two.end()), std::length_error);
  EXPECT_EQ(args, full);  // unchanged, not cut
  const std::vector<std::uint64_t> eleven(11, 7);
  EXPECT_THROW(args.assign(eleven.begin(), eleven.end()), std::length_error);
  EXPECT_EQ(args, full);
  EXPECT_THROW((MessageArgs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}), std::length_error);

  // A 7-word payload cannot be framed: send() refuses it before anything
  // is queued or transmitted.
  Scheduler scheduler;
  Node node(scheduler);
  auto sender = std::make_shared<ReliablePeer>();
  auto receiver = std::make_shared<ReliablePeer>();
  const auto sender_pid = node.spawn("sender", sender);
  sender->start_sender(node.spawn("receiver", receiver), 1);
  scheduler.run();
  const Message seven = typed(sender_pid, 5, {1, 2, 3, 4, 5, 6, 7});
  EXPECT_THROW(sender->sender->send(seven), std::length_error);
  EXPECT_EQ(sender->sender->in_flight(), 0u);
  EXPECT_EQ(sender->sender->sent(), 0u);
  EXPECT_EQ(node.totals().sent, 0u);
  EXPECT_TRUE(scheduler.empty());
}

TEST(MessageCapacity, IpcCorpusReplaysWithPinnedAccounting) {
  // Per input: ipc sent/delivered/dropped/duplicated/dead letters, reliable
  // sent/acked/retries/abandoned/accepted/duplicates dropped/malformed,
  // events fired/cancelled and tombstones purged — as the vector-args
  // kernel counted them.
  using C = obs::Counter;
  constexpr std::array kCounters{
      C::ipc_sent,          C::ipc_delivered,       C::ipc_dropped,
      C::ipc_duplicated,    C::ipc_dead_letters,    C::reliable_sent,
      C::reliable_acked,    C::reliable_retries,    C::reliable_abandoned,
      C::reliable_accepted, C::reliable_duplicates_dropped,
      C::reliable_malformed, C::sched_events_fired, C::sched_events_cancelled,
      C::sched_tombstones_purged};
  using Row = std::array<std::uint64_t, kCounters.size()>;
  const std::filesystem::path corpus = WTC_FUZZ_CORPUS_DIR;
  const std::vector<std::pair<std::filesystem::path, Row>> expected{
      {corpus / "ipc_frame" / "seed-basic", {6, 6, 0, 0, 0, 2, 2, 0, 0, 3, 1, 1, 8, 2, 2}},
      {corpus / "ipc_frame" / "seed-reorder", {7, 7, 0, 0, 0, 2, 2, 0, 0, 5, 0, 1, 9, 2, 2}},
      {corpus / "regressions" / "ipc_frame" / "fix-truncated-frame",
       {4, 4, 0, 0, 0, 2, 2, 0, 0, 2, 0, 1, 6, 2, 2}},
  };
  for (const auto& [path, want] : expected) {
    SCOPED_TRACE(path.string());
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    obs::Recorder recorder;
    {
      obs::ScopedRecorder scoped(recorder);
      EXPECT_EQ(fuzz::fuzz_ipc_frame(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                                     bytes.size()),
                0);
    }
    Row got{};
    for (std::size_t i = 0; i < kCounters.size(); ++i) {
      got[i] = recorder.snapshot().counter(kCounters[i]);
    }
    EXPECT_EQ(got, want);
  }
}

}  // namespace
}  // namespace wtc::sim
