// The database API (Table 1 of the paper) that client processes use.
//
// Every operation decodes the *in-region* catalog (CatalogView), so
// catalog corruption degrades or breaks API operations exactly as §3.2
// warns. The "modified" (audit-instrumented) API — enabled with
// `set_audit_hooks` — additionally:
//   * sends an activity message to the audit process on every call
//     (progress-indicator food, §4.2),
//   * sends an event-trigger message after each database update (§4.3),
//   * maintains the redundant per-record metadata and per-table access
//     statistics (§4.3.3, §4.4.1).
// The unmodified form does none of that; the Figure-4 benchmark measures
// the difference.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string_view>

#include "db/database.hpp"

namespace wtc::db {

/// API result codes. The paper's API reports failures to its clients; the
/// interesting ones here are Locked (another client's transaction) and
/// CatalogCorrupt (metadata damage making the operation impossible).
enum class Status : std::uint8_t {
  Ok = 0,
  NotConnected,    ///< DBinit not called / DBclose already called
  CatalogCorrupt,  ///< in-region catalog failed validation
  NoSuchTable,
  NoSuchRecord,
  NoSuchField,
  RecordNotActive,  ///< read/write of a free record
  NoFreeRecord,     ///< allocation found no free record (resource exhausted)
  Locked,           ///< table locked by another client
  BadGroup,         ///< DBmove to an out-of-range logical group
};

[[nodiscard]] std::string_view to_string(Status status) noexcept;

/// Operation tags carried in audit notification messages.
enum class ApiOp : std::uint8_t {
  Init = 0,
  Close,
  ReadRec,
  ReadFld,
  WriteRec,
  WriteFld,
  Move,
  Alloc,
  Free,
  TxnBegin,
  TxnEnd,
};

/// One notification from the instrumented API to the audit process.
/// Update events carry a snapshot of the written record's data so the
/// event-triggered audit can inspect the values without racing the client
/// — the bulk of the modified API's overhead on write-class operations
/// (the paper's Figure 4: DBwrite_rec pays the most).
///
/// Fields are laid out widest first, so the event packs into 64 bytes
/// with no padding; every copy the op logs and the IPC notify path make
/// moves that much less. (Nothing builds an ApiEvent by position, so the
/// order is free to choose.)
struct ApiEvent {
  sim::Time time = 0;
  sim::ProcessId client = sim::kNoProcess;
  RecordIndex record = 0;
  /// Client thread that issued the call (set_thread_id attribution) — the
  /// per-thread op log keys on this for healing replay.
  std::uint32_t thread = 0;
  /// Alloc/Move: the target logical group of the operation.
  std::uint32_t group = 0;
  TableId table = kNoTable;
  /// WriteFld: the written field id.
  FieldId field = 0;
  ApiOp op = ApiOp::Init;
  /// Outcome of the call — replay consumers skip failed (no-op) updates.
  Status status = Status::Ok;
  bool is_update = false;  ///< write-class op (triggers event audit)
  std::uint8_t payload_len = 0;
  std::array<std::int32_t, 8> payload{};
};
static_assert(sizeof(ApiEvent) == 64, "ApiEvent fields must pack without padding");

/// Where instrumented-API notifications go. In the integrated system this
/// is an adapter that posts to the audit process's IPC queue; benchmarks
/// may plug a counting sink.
class NotificationSink {
 public:
  virtual ~NotificationSink() = default;
  virtual void on_api_event(const ApiEvent& event) = 0;
};

/// How the mutating operations (alloc/free/move) maintain the group-chain
/// invariant. Splice is the production path: the chain neighbours come
/// from a word scan of the shadow index's bitmaps, and only the affected
/// link words are rewritten. FullRelink is the original O(N_records)
/// scan-and-rebuild, kept as the reference arm the hot-path ablation (A12)
/// benchmarks and byte-compares against.
enum class LinkMode : std::uint8_t { Splice, FullRelink };

/// Per-connection API handle (one per client process).
class DbApi {
 public:
  /// `clock` supplies virtual time for lock stamps and metadata.
  DbApi(Database& db, std::function<sim::Time()> clock);

  void set_link_mode(LinkMode mode) noexcept { link_mode_ = mode; }
  [[nodiscard]] LinkMode link_mode() const noexcept { return link_mode_; }

  /// Enables the audit-instrumented ("modified") API form.
  void set_audit_hooks(NotificationSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] bool instrumented() const noexcept { return sink_ != nullptr; }

  // --- Table 1 primitives ---
  /// DBinit: opens the client connection.
  Status init(sim::ProcessId pid);
  /// DBclose: closes the connection and releases any held locks.
  Status close();
  /// DBread_rec: reads all data fields of an active record.
  Status read_rec(TableId t, RecordIndex r, std::span<std::int32_t> out);
  /// DBread_fld: reads one field of an active record.
  Status read_fld(TableId t, RecordIndex r, FieldId f, std::int32_t& out);
  /// DBwrite_rec: writes all data fields of an active record.
  Status write_rec(TableId t, RecordIndex r, std::span<const std::int32_t> values);
  /// DBwrite_fld: writes one field of an active record.
  Status write_fld(TableId t, RecordIndex r, FieldId f, std::int32_t value);
  /// DBmove: moves a record to another logical group (§3.1.2, Table 1).
  Status move_rec(TableId t, RecordIndex r, std::uint32_t target_group);

  // --- allocation helpers the call-processing client uses (the paper's
  // Table 1 is explicitly "examples of" the full API) ---
  /// Allocates a free record into `group`, initializing fields to their
  /// catalog defaults. Returns its index in `out`.
  Status alloc_rec(TableId t, std::uint32_t group, RecordIndex& out);
  /// Frees an active record back to the free list (group 0).
  Status free_rec(TableId t, RecordIndex r);

  // --- transactions (lock scope spanning several primitives) ---
  /// Acquires the table lock; a client that dies before txn_end leaves the
  /// lock held — the progress-indicator element recovers that (§4.2).
  Status txn_begin(TableId t);
  Status txn_end(TableId t);

  [[nodiscard]] sim::ProcessId pid() const noexcept { return pid_; }
  [[nodiscard]] bool connected() const noexcept { return connected_; }

  /// The Database this handle is bound to. A DbApi always talks to exactly
  /// one region; in a sharded deployment the routing layer
  /// (ShardedDbApi, shard_router.hpp) holds one handle per shard and
  /// resolves subscriber keys to the right one — this accessor is what
  /// lets that layer reach shard-local state (locks, index, observer)
  /// without re-plumbing the constructor arguments.
  [[nodiscard]] Database& database() noexcept { return db_; }
  [[nodiscard]] const Database& database() const noexcept { return db_; }

  /// Client threads identify themselves before operating so the redundant
  /// metadata can attribute writes to a specific thread (the semantic
  /// audit's preemptive-termination recovery targets it, §4.3.3).
  void set_thread_id(std::uint32_t thread_id) noexcept { thread_id_ = thread_id; }
  [[nodiscard]] std::uint32_t thread_id() const noexcept { return thread_id_; }

 private:
  /// Validates connection + catalog + indices; fills the trusted offsets.
  Status resolve(TableId t, RecordIndex r, TableDescriptor& desc,
                 std::size_t& record_offset) const;
  /// Lock acquisition for a single op: owner passes, free table passes
  /// (auto-scope), foreign owner fails.
  Status check_lock(TableId t, bool& auto_locked);
  void notify(ApiOp op, TableId t, RecordIndex r, bool is_update,
              std::uint32_t group = 0, Status status = Status::Ok);
  /// Update notification with a snapshot of the record's current data.
  void notify_update(ApiOp op, TableId t, RecordIndex r, std::size_t record_at,
                     std::uint32_t num_fields, FieldId field = 0,
                     std::uint32_t group = 0, Status status = Status::Ok);
  void touch_meta(TableId t, RecordIndex r, bool is_write);
  /// Rebuilds the `next` links of every record of table `t` so each chain
  /// lists its group's records in index order (the structural invariant
  /// the audit checks). FullRelink mode only.
  void relink_groups(TableId t);
  /// Restores the chain invariant after this call changed record `r`'s
  /// group word from `old_group`: a bitmap-index splice in Splice mode
  /// (cross-checked and healed first when the database's paranoid mode is
  /// on), the full O(N) rebuild in FullRelink mode. `old_next` is r's link
  /// word as it was before the change.
  void splice_or_relink(TableId t, RecordIndex r, std::uint32_t old_group,
                        std::uint32_t old_next);

  Database& db_;
  std::function<sim::Time()> clock_;
  NotificationSink* sink_ = nullptr;
  sim::ProcessId pid_ = sim::kNoProcess;
  std::uint32_t thread_id_ = 0;
  bool connected_ = false;
  LinkMode link_mode_ = LinkMode::Splice;
};

/// Modelled virtual-time cost of one API call, microseconds (used by the
/// simulated clients to charge the Cpu). Instrumented calls cost more; the
/// ratios follow the shape of the paper's Figure 4.
[[nodiscard]] sim::Duration api_cost(ApiOp op, bool instrumented) noexcept;

}  // namespace wtc::db
