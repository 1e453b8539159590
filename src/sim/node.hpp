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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
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

/// The argument words of a Message, held inline. The capacity is the
/// largest frame in the tree: the 4 reliable-framing words around a 6-word
/// CF violation (audit/messages.hpp). Growing past it throws
/// std::length_error; a message is never truncated.
class MessageArgs {
 public:
  static constexpr std::size_t kCapacity = 10;
  using value_type = std::uint64_t;
  using iterator = std::uint64_t*;
  using const_iterator = const std::uint64_t*;

  MessageArgs() noexcept = default;
  MessageArgs(std::initializer_list<std::uint64_t> words) {
    append(words.begin(), words.end());
  }
  MessageArgs& operator=(std::initializer_list<std::uint64_t> words) {
    assign(words.begin(), words.end());
    return *this;
  }

  /// assign/append/push_back change nothing when they throw.
  template <typename It>
  void assign(It first, It last) {
    const auto count = static_cast<std::size_t>(std::distance(first, last));
    if (count > kCapacity) {
      overflow(count);
    }
    size_ = 0;
    append(first, last);
  }
  template <typename It>
  void append(It first, It last) {
    const auto count = static_cast<std::size_t>(std::distance(first, last));
    if (count > kCapacity - size_) {
      overflow(size_ + count);
    }
    std::copy(first, last, words_ + size_);
    size_ += static_cast<std::uint32_t>(count);
  }
  void push_back(std::uint64_t word) {
    if (size_ == kCapacity) {
      overflow(size_ + 1);
    }
    words_[size_++] = word;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t& operator[](std::size_t i) noexcept { return words_[i]; }
  [[nodiscard]] std::uint64_t operator[](std::size_t i) const noexcept {
    return words_[i];
  }
  [[nodiscard]] iterator begin() noexcept { return words_; }
  [[nodiscard]] iterator end() noexcept { return words_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return words_; }
  [[nodiscard]] const_iterator end() const noexcept { return words_ + size_; }

  friend bool operator==(const MessageArgs& a, const MessageArgs& b) noexcept {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[noreturn]] static void overflow(std::size_t wanted);

  std::uint32_t size_ = 0;
  std::uint64_t words_[kCapacity] = {};
};

/// An IPC message. `type` is interpreted by the receiver; `args` carries
/// small scalars (table ids, record indexes, client pids, timestamps).
struct Message {
  ProcessId from = kNoProcess;
  std::uint32_t type = 0;
  MessageArgs args;
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
  /// runs immediately. No-op (returns false) if already dead. A process
  /// killed from inside one of its own callbacks stays allocated until
  /// that callback returns.
  bool kill(ProcessId pid);

  [[nodiscard]] bool alive(ProcessId pid) const noexcept {
    return pid < table_.size() && table_[pid].process != nullptr;
  }
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
  [[nodiscard]] std::shared_ptr<Process> find(ProcessId pid) const {
    return alive(pid) ? table_[pid].owner : nullptr;
  }

  [[nodiscard]] Scheduler& scheduler() noexcept { return scheduler_; }
  [[nodiscard]] Time now() const noexcept { return scheduler_.now(); }

  /// Total processes ever spawned / currently alive (for assertions).
  [[nodiscard]] std::size_t spawned_count() const noexcept { return next_pid_ - 1; }
  [[nodiscard]] std::size_t alive_count() const noexcept { return alive_; }

  /// Default modelled latency of the POSIX message queue between DB API
  /// and the audit process (§4.2).
  static constexpr Duration kDefaultIpcDelay = 50;  // 50 us

 private:
  friend class Process;

  /// A link this pid has sent on, cached so send() finds its counters
  /// without hashing.
  struct Link {
    ProcessId to;
    LinkCounters* counters;
  };
  /// One process-table row, indexed by pid (pids are never reused; row 0
  /// is kNoProcess, which never lives).
  struct Entry {
    Process* process = nullptr;     // null once dead
    std::uint64_t incarnation = 0;  // the live incarnation; 0 once dead
    std::shared_ptr<Process> owner;
    std::vector<Link> links;
    std::string name;
  };
  /// A callback running on behalf of `pid`: if it kills its own process,
  /// kill() parks the last reference in `released`, which is dropped when
  /// the callback returns.
  struct Dispatch {
    ProcessId pid;
    Dispatch* outer;
    std::shared_ptr<Process> released;
  };

  /// The process `pid` if it is alive in `incarnation`, else nullptr.
  [[nodiscard]] Process* live(ProcessId pid, std::uint64_t incarnation) const noexcept {
    return pid < table_.size() && table_[pid].incarnation == incarnation
               ? table_[pid].process
               : nullptr;
  }
  /// Runs `fn` as a callback of `pid` (see Dispatch).
  template <typename Fn>
  void dispatch(ProcessId pid, Fn&& fn);

  /// The counters of link `from -> to`; map entries never move, so the
  /// reference stays valid for the node's lifetime.
  LinkCounters& link(ProcessId from, ProcessId to);
  static constexpr std::uint64_t link_key(ProcessId from, ProcessId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  /// Schedules the delivery of `message` to `to` on `link`.
  void deliver(ProcessId to, Message message, Duration delay, LinkCounters& link);

  Scheduler& scheduler_;
  std::vector<Entry> table_;
  std::size_t alive_ = 0;
  Dispatch* dispatching_ = nullptr;  // innermost running process callback
  ProcessId next_pid_ = 1;
  std::uint64_t next_incarnation_ = 1;
  std::optional<ChannelFaults> faults_;
  std::unordered_map<std::uint64_t, LinkCounters> links_;
  LinkCounters totals_;
};

inline Time Process::now() const noexcept { return node_->now(); }

template <typename Fn>
void Node::dispatch(ProcessId pid, Fn&& fn) {
  Dispatch frame{pid, dispatching_, nullptr};
  dispatching_ = &frame;
  struct Restore {
    Node& node;
    Dispatch& frame;
    ~Restore() { node.dispatching_ = frame.outer; }
  } restore{*this, frame};
  fn();
}

template <typename Fn>
EventId Process::schedule_after(Duration delay, Fn&& fn) {
  Node& node = *node_;
  // Fires only if the same incarnation of the process is still alive: a
  // killed (or killed-and-restarted) process must not observe timers from
  // its previous life.
  auto timer = [&node, pid = pid_, incarnation = incarnation_,
                fn = std::forward<Fn>(fn)]() mutable {
    if (node.live(pid, incarnation) != nullptr) {
      node.dispatch(pid, fn);
    }
  };
  static_assert(Scheduler::kStoredInline<decltype(timer)>,
                "process timers must fit a scheduler slot");
  return node.scheduler().schedule_after(static_cast<Time>(delay), std::move(timer));
}

}  // namespace wtc::sim
