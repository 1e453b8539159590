#include "sim/node.hpp"

#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace wtc::sim {

void MessageArgs::overflow(std::size_t wanted) {
  throw std::length_error("sim::MessageArgs: " + std::to_string(wanted) +
                          " words exceed the capacity of " +
                          std::to_string(kCapacity));
}

ProcessId Node::spawn(std::string name, std::shared_ptr<Process> process) {
  const ProcessId pid = next_pid_++;
  const std::uint64_t incarnation = next_incarnation_++;
  process->node_ = this;
  process->pid_ = pid;
  process->incarnation_ = incarnation;
  if (table_.size() <= pid) {
    table_.resize(pid + 1);
  }
  Entry& entry = table_[pid];
  entry.process = process.get();
  entry.incarnation = incarnation;
  entry.owner = std::move(process);
  entry.name = std::move(name);
  ++alive_;
  scheduler_.schedule_after(0, [this, pid, incarnation]() {
    if (Process* started = live(pid, incarnation)) {
      dispatch(pid, [started]() { started->on_start(); });
    }
  });
  return pid;
}

bool Node::kill(ProcessId pid) {
  if (!alive(pid)) {
    return false;
  }
  Entry& entry = table_[pid];
  std::shared_ptr<Process> process = std::move(entry.owner);
  entry.process = nullptr;
  entry.incarnation = 0;
  --alive_;
  // Zero the incarnation so in-flight timers/messages captured against the
  // old incarnation stay inert even if the Process object is respawned.
  process->incarnation_ = 0;
  process->on_stopped();
  // Killed from inside one of its own callbacks: the object must outlive
  // that callback, so its running frame takes the last reference.
  for (Dispatch* frame = dispatching_; frame != nullptr; frame = frame->outer) {
    if (frame->pid == pid) {
      frame->released = std::move(process);
      break;
    }
  }
  return true;
}

std::string Node::name_of(ProcessId pid) const {
  return alive(pid) ? table_[pid].name : std::string{};
}

LinkCounters& Node::link(ProcessId from, ProcessId to) {
  if (from < table_.size()) {
    for (const Link& cached : table_[from].links) {
      if (cached.to == to) {
        return *cached.counters;
      }
    }
  }
  LinkCounters& counters = links_[link_key(from, to)];
  if (from < table_.size()) {
    table_[from].links.push_back(Link{to, &counters});
  }
  return counters;
}

void Node::send(ProcessId to, Message message, Duration delay) {
  LinkCounters& counters = link(message.from, to);
  ++counters.sent;
  ++totals_.sent;
  obs::count(obs::Counter::ipc_sent);
  if (faults_) {
    if (faults_->should_drop()) {
      ++counters.dropped;
      ++totals_.dropped;
      obs::count(obs::Counter::ipc_dropped);
      common::log(common::LogLevel::Debug, "sim", "channel dropped message type ",
                  message.type, " from ", message.from, " to ", to);
      return;
    }
    if (faults_->should_duplicate()) {
      ++counters.duplicated;
      ++totals_.duplicated;
      obs::count(obs::Counter::ipc_duplicated);
      deliver(to, message, delay + faults_->jitter(), counters);
    }
    delay += faults_->jitter();
  }
  deliver(to, std::move(message), delay, counters);
}

void Node::deliver(ProcessId to, Message message, Duration delay,
                   LinkCounters& counters) {
  auto delivery = [this, to, counters = &counters, message = std::move(message)]() {
    if (Process* receiver = alive(to) ? table_[to].process : nullptr) {
      ++counters->delivered;
      ++totals_.delivered;
      obs::count(obs::Counter::ipc_delivered);
      dispatch(to, [receiver, &message]() { receiver->on_message(message); });
    } else {
      ++counters->dead_letters;
      ++totals_.dead_letters;
      obs::count(obs::Counter::ipc_dead_letters);
      common::log(common::LogLevel::Debug, "sim", "dead letter: message type ",
                  message.type, " from ", message.from, " to dead process ", to);
    }
  };
  static_assert(Scheduler::kStoredInline<decltype(delivery)>,
                "a message delivery must fit a scheduler slot");
  scheduler_.schedule_after(static_cast<Time>(delay), std::move(delivery));
}

LinkCounters Node::link_counters(ProcessId from, ProcessId to) const {
  auto it = links_.find(link_key(from, to));
  return it == links_.end() ? LinkCounters{} : it->second;
}

}  // namespace wtc::sim
