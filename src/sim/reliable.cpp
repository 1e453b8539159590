#include "sim/reliable.hpp"

#include <utility>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace wtc::sim {

ReliableSender::ReliableSender(Process& owner, std::uint32_t channel,
                               std::function<ProcessId()> dest,
                               ReliableConfig config)
    : owner_(owner),
      channel_(channel),
      dest_(std::move(dest)),
      config_(config) {}

ReliableSender::~ReliableSender() {
  // Outstanding retry timers capture `this` raw; a sender torn down with
  // frames in flight (manager demotion, failover teardown, test scaffold
  // destruction) must disarm them or they fire on a dangling pointer.
  Scheduler& scheduler = owner_.node().scheduler();
  for (auto& [seq, pending] : pending_) {
    if (pending.retry_event != 0) {
      scheduler.cancel(pending.retry_event);
    }
  }
}

std::uint64_t ReliableSender::send(Message inner) {
  return send_to(kNoProcess, std::move(inner));
}

std::uint64_t ReliableSender::send_to(ProcessId to, Message inner) {
  Pending pending;
  pending.fixed_to = to;
  pending.frame.args = {channel_, 0, inner.type,
                        static_cast<std::uint64_t>(inner.from)};
  pending.frame.args.append(inner.args.begin(), inner.args.end());
  return launch(std::move(pending));
}

std::uint64_t ReliableSender::launch(Pending pending) {
  const std::uint64_t seq = ++next_seq_;
  pending.frame.type = kReliableData;
  pending.frame.from = owner_.pid();
  pending.frame.args[1] = seq;
  pending.next_delay = config_.retry_after;
  pending_.emplace(seq, std::move(pending));
  obs::gauge_max(obs::Gauge::reliable_max_in_flight, pending_.size());
  transmit(seq);
  return seq;
}

void ReliableSender::transmit(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) {
    return;
  }
  Pending& pending = it->second;
  ++pending.attempts;
  ++sent_;
  obs::count(obs::Counter::reliable_sent);
  const ProcessId to =
      pending.fixed_to != kNoProcess ? pending.fixed_to : dest_();
  if (to != kNoProcess) {
    owner_.node().send(to, pending.frame);
  }
  arm_retry(seq);
}

void ReliableSender::arm_retry(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  if (it == pending_.end()) {
    return;
  }
  const Duration delay = it->second.next_delay;
  it->second.retry_event = owner_.schedule_after(delay, [this, seq]() {
    auto pending = pending_.find(seq);
    if (pending == pending_.end()) {
      return;  // acked in the meantime
    }
    pending->second.retry_event = 0;  // this timer just fired
    if (pending->second.attempts >= config_.max_attempts) {
      // Bounded delivery: surrender the frame to the dead-letter count
      // rather than retrying forever against a dead receiver.
      ++abandoned_;
      obs::count(obs::Counter::reliable_abandoned);
      obs::count(obs::Counter::ipc_dead_letters);
      obs::trace_instant("reliable.dead_letter", "sim", owner_.node().now());
      common::log(common::LogLevel::Debug, "sim",
                  "reliable channel ", channel_, " abandoning seq ", seq,
                  " after ", pending->second.attempts, " attempts");
      pending_.erase(pending);
      return;
    }
    pending->second.next_delay = static_cast<Duration>(
        static_cast<double>(pending->second.next_delay) * config_.backoff);
    ++retries_;
    obs::count(obs::Counter::reliable_retries);
    transmit(seq);
  });
}

bool ReliableSender::on_message(const Message& message) {
  if (message.type != kReliableAck || message.args.size() < 2 ||
      message.args[0] != channel_) {
    return false;
  }
  const auto it = pending_.find(message.args[1]);
  if (it != pending_.end()) {
    // Disarm the retry timer — an acked frame must not leave a queued
    // callback behind (wasted events at best, a dangling-`this` hazard
    // once the sender is torn down).
    if (it->second.retry_event != 0) {
      owner_.node().scheduler().cancel(it->second.retry_event);
    }
    pending_.erase(it);
    ++acked_;
    obs::count(obs::Counter::reliable_acked);
  }
  return true;
}

std::optional<Message> ReliableReceiver::accept(const Message& frame) {
  if (frame.type != kReliableData || frame.args.size() < 4) {
    // A truncated/corrupted frame (exactly what a faulty channel or an
    // injector produces) carries no usable framing words; indexing
    // args[0..3] regardless would read out of bounds. Drop it unacked.
    ++malformed_;
    obs::count(obs::Counter::reliable_malformed);
    common::log(common::LogLevel::Debug, "sim",
                "reliable receiver dropping malformed frame from ", frame.from,
                " (", frame.args.size(), " args)");
    return std::nullopt;
  }
  const std::uint64_t channel = frame.args[0];
  const std::uint64_t seq = frame.args[1];

  Message ack;
  ack.from = owner_.pid();
  ack.type = kReliableAck;
  ack.args = {channel, seq};
  owner_.node().send(frame.from, std::move(ack));

  const std::uint64_t key =
      (static_cast<std::uint64_t>(frame.from) << 32) | (channel & 0xFFFFFFFFu);
  Stream& stream = streams_[key];
  if (seq <= stream.floor || stream.above.contains(seq)) {
    ++duplicates_dropped_;
    obs::count(obs::Counter::reliable_duplicates_dropped);
    return std::nullopt;
  }
  stream.above.insert(seq);
  while (stream.above.erase(stream.floor + 1) > 0) {
    ++stream.floor;
  }

  ++accepted_;
  obs::count(obs::Counter::reliable_accepted);
  Message inner;
  inner.type = static_cast<std::uint32_t>(frame.args[2]);
  inner.from = static_cast<ProcessId>(frame.args[3]);
  inner.args.assign(frame.args.begin() + 4, frame.args.end());
  return inner;
}

}  // namespace wtc::sim
