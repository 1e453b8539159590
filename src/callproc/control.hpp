// Client-control plumbing between the audit subsystem's recovery actions
// and the call-processing clients.
//
// The semantic audit terminates the thread that last wrote a zombie
// record; the progress indicator kills a client process wedging the
// database (§4.2, §4.3.3). The directory routes those recovery actions to
// whichever client object owns the pid.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "audit/report.hpp"
#include "db/database.hpp"
#include "sim/node.hpp"

namespace wtc::callproc {

/// Implemented by client processes that support per-thread termination.
class ControllableClient {
 public:
  virtual ~ControllableClient() = default;
  virtual void control_terminate_thread(std::uint32_t thread_id) = 0;
};

class ClientDirectory final : public audit::ClientControl {
 public:
  ClientDirectory(sim::Node& node, db::Database& db) : node_(node), db_(db) {}

  void register_client(sim::ProcessId pid, ControllableClient* client) {
    clients_[pid] = client;
  }
  void terminate_client_thread(sim::ProcessId client,
                               std::uint32_t thread_id) override {
    auto it = clients_.find(client);
    if (it != clients_.end()) {
      it->second->control_terminate_thread(thread_id);
    }
  }

  void kill_client_process(sim::ProcessId client) override {
    // Crash semantics: the dead client's locks are released so the rest of
    // the environment can make progress again.
    node_.kill(client);
    db_.release_locks_of(client);
    clients_.erase(client);
  }

 private:
  sim::Node& node_;
  db::Database& db_;
  std::unordered_map<sim::ProcessId, ControllableClient*> clients_;
};

}  // namespace wtc::callproc
