// Simulated node hosting the controller's processes.
//
// The paper's environment is a set of OS processes on one controller node —
// call-processing client(s), the audit process (dbserver + audit), and the
// duplicated manager — communicating over IPC message queues, with crash
// and restart semantics (the manager restarts a dead audit process; the
// progress indicator kills a client that wedged the database). `Node`
// models exactly that: process spawn/kill, asynchronous message delivery,
// and per-process timers that die with their process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/channel_faults.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace wtc::sim {

/// Simulated process id. 0 is never issued (reserved as "nobody").
using ProcessId = std::uint32_t;
inline constexpr ProcessId kNoProcess = 0;

/// An IPC message. `type` is interpreted by the receiver; `args` carries
/// small scalars (table ids, record indexes, client pids, timestamps).
struct Message {
  ProcessId from = kNoProcess;
  std::uint32_t type = 0;
  std::vector<std::uint64_t> args;
};

class Node;

/// Base class for simulated processes. Subclasses implement behaviour by
/// reacting to start, incoming messages, and self-scheduled timers.
class Process {
 public:
  virtual ~Process() = default;

  /// Invoked once when the process is spawned (or respawned).
  virtual void on_start() {}

  /// Invoked for each delivered message.
  virtual void on_message(const Message& message) { (void)message; }

  /// Invoked when the process is killed or exits; the process must not
  /// schedule further work from here (its timers are already dead).
  virtual void on_stopped() {}

  [[nodiscard]] ProcessId pid() const noexcept { return pid_; }
  [[nodiscard]] Node& node() const noexcept { return *node_; }

  /// Schedules a member callback after `delay`; automatically inert if the
  /// process has been killed (or killed-and-restarted) in the meantime.
  /// `fn` is captured directly by the scheduled event's callable.
  template <typename Fn>
  EventId schedule_after(Duration delay, Fn&& fn);

  /// Current virtual time.
  [[nodiscard]] Time now() const noexcept;

 private:
  friend class Node;
  Node* node_ = nullptr;
  ProcessId pid_ = kNoProcess;
  std::uint64_t incarnation_ = 0;
};

/// The hosting node: process table, message delivery, lifecycle.
class Node {
 public:
  explicit Node(Scheduler& scheduler) : scheduler_(scheduler) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Spawns `process` under `name` and schedules its on_start() at the
  /// current instant. Returns its pid.
  ProcessId spawn(std::string name, std::shared_ptr<Process> process);

  /// Kills a process: no further messages or timers reach it; on_stopped()
  /// runs immediately. No-op (returns false) if already dead.
  bool kill(ProcessId pid);

  [[nodiscard]] bool alive(ProcessId pid) const noexcept;
  [[nodiscard]] std::string name_of(ProcessId pid) const;

  /// Queues `message` for delivery to `to` after `delay` (default: the IPC
  /// queue latency). Messages to dead processes become dead letters (as
  /// with a real message queue whose reader has exited): counted, logged
  /// at debug level, and otherwise dropped. When a channel-fault model is
  /// installed the message may additionally be dropped, duplicated, or
  /// delay-jittered in transit.
  void send(ProcessId to, Message message, Duration delay = kDefaultIpcDelay);

  /// Installs (or replaces) the unreliable-IPC fault model applied to
  /// every subsequent send().
  void set_channel_faults(ChannelFaultsConfig config) {
    faults_.emplace(config);
  }
  void clear_channel_faults() noexcept { faults_.reset(); }

  /// Delivery accounting for the directed link `from -> to` (zeros if the
  /// link never carried traffic) and across all links.
  [[nodiscard]] LinkCounters link_counters(ProcessId from, ProcessId to) const;
  [[nodiscard]] const LinkCounters& totals() const noexcept { return totals_; }
  /// Messages that reached a dead receiver (all links).
  [[nodiscard]] std::uint64_t dead_letter_count() const noexcept {
    return totals_.dead_letters;
  }

  /// Looks up a live process by pid; nullptr if dead/unknown.
  [[nodiscard]] std::shared_ptr<Process> find(ProcessId pid) const;

  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] Time now() const noexcept { return scheduler_.now(); }

  /// Total processes ever spawned / currently alive (for assertions).
  [[nodiscard]] std::size_t spawned_count() const noexcept { return next_pid_ - 1; }
  [[nodiscard]] std::size_t alive_count() const noexcept { return table_.size(); }

  /// Default modelled latency of the POSIX message queue between DB API
  /// and the audit process (§4.2).
  static constexpr Duration kDefaultIpcDelay = 50;  // 50 us

 private:
  struct Slot {
    std::string name;
    std::shared_ptr<Process> process;
    std::uint64_t incarnation;
  };

  static constexpr std::uint64_t link_key(ProcessId from, ProcessId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Schedules the delivery of `message` to `to`; `link` is the counters
  /// entry of the message's link (unordered_map entries never move, so the
  /// event holds it by reference instead of looking it up again).
  void deliver(ProcessId to, Message message, Duration delay, LinkCounters& link);

  Scheduler& scheduler_;
  std::unordered_map<ProcessId, Slot> table_;
  ProcessId next_pid_ = 1;
  std::uint64_t next_incarnation_ = 1;
  std::optional<ChannelFaults> faults_;
  std::unordered_map<std::uint64_t, LinkCounters> links_;
  LinkCounters totals_;
};

template <typename Fn>
EventId Process::schedule_after(Duration delay, Fn&& fn) {
  Node& node = *node_;
  return node.scheduler().schedule_after(
      static_cast<Time>(delay),
      [&node, pid = pid_, incarnation = incarnation_,
       fn = std::forward<Fn>(fn)]() mutable {
        // Fire only if the same incarnation of the process is still alive;
        // a killed (or killed-and-restarted) process must not observe
        // timers from its previous life. `process` keeps the object alive
        // while its own callback runs, even if the callback kills it.
        const std::shared_ptr<Process> process = node.find(pid);
        if (process && process->incarnation_ == incarnation) {
          fn();
        }
      });
}

}  // namespace wtc::sim
