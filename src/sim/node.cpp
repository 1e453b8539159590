#include "sim/node.hpp"

#include <utility>

#include "common/log.hpp"
#include "obs/metrics.hpp"

namespace wtc::sim {

Time Process::now() const noexcept { return node_->now(); }

ProcessId Node::spawn(std::string name, std::shared_ptr<Process> process) {
  const ProcessId pid = next_pid_++;
  process->node_ = this;
  process->pid_ = pid;
  process->incarnation_ = next_incarnation_++;
  table_.emplace(pid, Slot{std::move(name), process, process->incarnation_});
  scheduler_.schedule_after(0, [this, pid]() {
    if (auto p = find(pid)) {
      p->on_start();
    }
  });
  return pid;
}

bool Node::kill(ProcessId pid) {
  auto it = table_.find(pid);
  if (it == table_.end()) {
    return false;
  }
  std::shared_ptr<Process> process = std::move(it->second.process);
  table_.erase(it);
  // Bump incarnation so in-flight timers/messages captured against the old
  // incarnation become inert even if the Process object is respawned.
  process->incarnation_ = 0;
  process->on_stopped();
  return true;
}

bool Node::alive(ProcessId pid) const noexcept { return table_.contains(pid); }

std::string Node::name_of(ProcessId pid) const {
  auto it = table_.find(pid);
  return it == table_.end() ? std::string{} : it->second.name;
}

void Node::send(ProcessId to, Message message, Duration delay) {
  LinkCounters& link = links_[link_key(message.from, to)];
  ++link.sent;
  ++totals_.sent;
  obs::count(obs::Counter::ipc_sent);
  if (faults_) {
    if (faults_->should_drop()) {
      ++link.dropped;
      ++totals_.dropped;
      obs::count(obs::Counter::ipc_dropped);
      common::log(common::LogLevel::Debug, "sim", "channel dropped message type ",
                  message.type, " from ", message.from, " to ", to);
      return;
    }
    if (faults_->should_duplicate()) {
      ++link.duplicated;
      ++totals_.duplicated;
      obs::count(obs::Counter::ipc_duplicated);
      deliver(to, message, delay + faults_->jitter(), link);
    }
    delay += faults_->jitter();
  }
  deliver(to, std::move(message), delay, link);
}

void Node::deliver(ProcessId to, Message message, Duration delay,
                   LinkCounters& link) {
  scheduler_.schedule_after(
      static_cast<Time>(delay),
      [this, to, &link, message = std::move(message)]() {
        if (auto process = find(to)) {
          ++link.delivered;
          ++totals_.delivered;
          obs::count(obs::Counter::ipc_delivered);
          process->on_message(message);
        } else {
          ++link.dead_letters;
          ++totals_.dead_letters;
          obs::count(obs::Counter::ipc_dead_letters);
          common::log(common::LogLevel::Debug, "sim", "dead letter: message type ",
                      message.type, " from ", message.from, " to dead process ",
                      to);
        }
      });
}

LinkCounters Node::link_counters(ProcessId from, ProcessId to) const {
  auto it = links_.find(link_key(from, to));
  return it == links_.end() ? LinkCounters{} : it->second;
}

std::shared_ptr<Process> Node::find(ProcessId pid) const {
  auto it = table_.find(pid);
  return it == table_.end() ? nullptr : it->second.process;
}

}  // namespace wtc::sim
