// The controller's in-memory database subsystem (§3.1.2).
//
// Owns the contiguous pre-allocated region (catalog + tables), the pristine
// "disk image" used by audit recovery reloads, the per-table lock table the
// API manipulates transparently for clients, and the redundant bookkeeping
// the audit framework adds *outside* the original database structure
// (§4.3.3): per-record last-writer / last-access-time / access counters and
// per-table access-frequency and error-history statistics (§4.4.1).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "db/index.hpp"
#include "db/layout.hpp"
#include "db/schema.hpp"
#include "sim/node.hpp"
#include "sim/time.hpp"

namespace wtc::db {

/// Hook the error-injection oracle attaches to distinguish legitimate
/// writes (which *overwrite* injected corruption) from client reads (which
/// *consume* it). The audit subsystem does not use this; it exists purely
/// for experiment accounting.
class RegionObserver {
 public:
  virtual ~RegionObserver() = default;
  /// A client/API write replaced `len` bytes at `offset` with known-good data.
  virtual void on_legitimate_write(std::size_t offset, std::size_t len) = 0;
  /// Client `pid` read `len` bytes at `offset` through the API.
  virtual void on_client_read(sim::ProcessId pid, std::size_t offset,
                              std::size_t len) = 0;
};

/// Redundant per-record metadata (§4.3.3): identifies the misbehaving
/// database client and enables preemptive termination during semantic
/// recovery. Lives outside the region so corruption injection cannot
/// touch it (matching "adding redundancy without modifying the original
/// database structure").
struct RecordMeta {
  sim::ProcessId last_writer = sim::kNoProcess;
  std::uint32_t last_writer_thread = 0;  ///< client thread within the process
  sim::Time last_access = 0;
  std::uint32_t access_count = 0;
};

/// Per-table runtime statistics feeding prioritized audit triggering
/// (§4.4.1): access frequency and recent error history.
struct TableStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t errors_detected_total = 0;
  std::uint64_t errors_last_cycle = 0;

  [[nodiscard]] std::uint64_t accesses() const noexcept { return reads + writes; }
};

/// Table lock state. The API acquires/releases locks transparently; a
/// crashed client leaves its lock held, which the progress-indicator
/// element detects and recovers (§4.2).
struct LockInfo {
  sim::ProcessId owner = sim::kNoProcess;
  sim::Time since = 0;
};

class Database {
 public:
  /// Granularity of the region-wide dirty-chunk generation grid. The
  /// audit engine's static-checksum chunks use the same size.
  static constexpr std::size_t kDirtyChunkBytes = 256;

  /// `populate` (optional) runs after the region is formatted and before
  /// the pristine disk image is snapshotted — use it to fill static tables
  /// with their real (distinct) configuration values so the golden
  /// checksum covers meaningful data.
  using PopulateFn =
      std::function<void(std::span<std::byte>, const Schema&, const Layout&)>;
  explicit Database(Schema schema, const PopulateFn& populate = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  [[nodiscard]] const Schema& schema() const noexcept { return schema_; }
  [[nodiscard]] const Layout& layout() const noexcept { return layout_; }

  /// The live region. The audit subsystem reads it via direct memory
  /// access, bypassing the API and its locks (§4, Figure 1).
  [[nodiscard]] std::span<std::byte> region() noexcept { return region_; }
  [[nodiscard]] std::span<const std::byte> region() const noexcept { return region_; }

  /// Pristine startup image ("disk"). Recovery reloads come from here.
  [[nodiscard]] std::span<const std::byte> pristine() const noexcept {
    return pristine_;
  }

  /// Reloads the whole region from disk (structural-damage recovery,
  /// §4.3.2 — all dynamic state is lost, dropping active calls).
  void reload_all_from_disk() noexcept;

  /// Reloads `[offset, offset+len)` from disk (static-data recovery,
  /// §4.3.1 — "reload the affected portion from permanent storage").
  void reload_span_from_disk(std::size_t offset, std::size_t len) noexcept;

  /// Reloads just the catalog bytes.
  void reload_catalog_from_disk() noexcept;

  /// Installs `bytes` as both the live region and the pristine disk image
  /// (the boot-from-permanent-storage path). Fails on size mismatch or if
  /// the image's catalog does not decode.
  bool install_image(std::span<const std::byte> bytes);

  /// Byte spans holding static data: the serialized catalog plus every
  /// record of every static table. This is the golden-checksum coverage
  /// (§4.3.1).
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> static_spans() const;

  // --- locks ---
  /// Acquires table `t` for `pid`; false if held by another process.
  /// Re-acquisition by the owner is idempotent.
  bool try_lock(TableId t, sim::ProcessId pid, sim::Time now) noexcept;
  /// Releases table `t` if held by `pid`.
  bool unlock(TableId t, sim::ProcessId pid) noexcept;
  /// Releases every lock held by `pid` (crash cleanup by recovery actions).
  void release_locks_of(sim::ProcessId pid) noexcept;
  [[nodiscard]] std::optional<LockInfo> lock_info(TableId t) const noexcept;
  /// All currently held locks (progress-indicator recovery scans these).
  [[nodiscard]] std::vector<std::pair<TableId, LockInfo>> held_locks() const;

  // --- redundant metadata & statistics (audit-framework additions) ---
  [[nodiscard]] RecordMeta& record_meta(TableId t, RecordIndex r);
  [[nodiscard]] const RecordMeta& record_meta(TableId t, RecordIndex r) const;
  [[nodiscard]] TableStats& table_stats(TableId t) { return table_stats_.at(t); }
  [[nodiscard]] const TableStats& table_stats(TableId t) const {
    return table_stats_.at(t);
  }
  [[nodiscard]] std::size_t table_count() const noexcept {
    return schema_.tables.size();
  }

  // --- write-time dirty tracking (incremental audit support) ---
  // Every mutation of region bytes that goes through the store — API
  // writes, the audit's direct-access recovery writes, disk reloads, and
  // injected corruption modelling wild software writes — bumps a global
  // monotonically increasing write generation and stamps it on the touched
  // records, their tables, and the fixed-size dirty chunks covering the
  // byte span, in one walk that writes each record's stamps as one 32-byte
  // block (one cache line). The incremental audit compares these stamps
  // against the generation watermark it recorded at its previous scan:
  // stamp greater than watermark means "written since I last looked" (an
  // epoch-based dirty bitmap that never needs clearing). Raw-memory
  // corruption that bypasses the store leaves no stamp — catching it is
  // what the audit's periodic full sweep is for.

  /// Marks [offset, offset+len) written, then forwards the legitimate-write
  /// notification to the experiment observer. Store write paths call this.
  void note_write(std::size_t offset, std::size_t len) noexcept;

  /// Marks [offset, offset+len) written WITHOUT an observer notification —
  /// the injector's through-store corruption path (the written bytes are
  /// anything but legitimate, yet a wild write by faulty software does go
  /// through the memory system and is visible to write tracking).
  void mark_written(std::size_t offset, std::size_t len) noexcept {
    stamp(offset, len, false);
  }

  [[nodiscard]] std::uint64_t write_generation() const noexcept {
    return write_gen_;
  }
  /// Generation of the last store write touching any byte of table `t`.
  [[nodiscard]] std::uint64_t table_generation(TableId t) const {
    return table_gen_.at(t);
  }
  /// Generation of the last store write touching record (t, r).
  [[nodiscard]] std::uint64_t record_generation(TableId t, RecordIndex r) const {
    return gens_.at(t).at(r).record;
  }
  /// Generation of the last store write touching the 16-byte *header* of
  /// record (t, r). Field-only writes (normal call-data updates) bump
  /// record_generation but not this — letting the structural check ignore
  /// traffic that cannot have changed id/status/group/link words.
  [[nodiscard]] std::uint64_t header_generation(TableId t, RecordIndex r) const {
    return gens_.at(t).at(r).header;
  }
  /// Generation of the last header write anywhere in table `t`.
  [[nodiscard]] std::uint64_t table_header_generation(TableId t) const {
    return table_header_gen_.at(t);
  }
  /// Generation of the last store write touching the *field area* (the
  /// bytes past the 16-byte header) of record (t, r). Group relinks rewrite
  /// only header link words, so they bump record_generation but not this —
  /// letting the content checks (range / selective / semantic) ignore
  /// traffic that cannot have changed field values.
  [[nodiscard]] std::uint64_t field_generation(TableId t, RecordIndex r) const {
    return gens_.at(t).at(r).field;
  }
  /// Generation of the last field-area write anywhere in table `t`.
  [[nodiscard]] std::uint64_t table_field_generation(TableId t) const {
    return table_field_gen_.at(t);
  }
  /// Generation of the last *scrub* of record (t, r): a store write that
  /// rewrote the record's whole field area with its defaults (the
  /// free-record paths). While field_generation == scrub_generation > 0 the
  /// field bytes are the schema's defaults (DbApi::free_rec scrubs from the
  /// in-region catalog and attests only when those match the schema), so
  /// the range check can attest the record without reading it;
  /// any later field write — including through-store corruption — breaks
  /// the equality.
  [[nodiscard]] std::uint64_t scrub_generation(TableId t, RecordIndex r) const {
    return gens_.at(t).at(r).scrub;
  }
  /// note_write variant for the free-record scrub: marks the span written
  /// and, in the same walk, stamps the scrub generation of every record
  /// whose whole field area lies inside [offset, offset+len); then
  /// notifies the observer. Counts obs db.scrubs.
  void note_scrub(std::size_t offset, std::size_t len) noexcept;
  /// True if any store write has touched [offset, offset+len) since
  /// generation `gen` (chunk-granular: may over-approximate within
  /// kDirtyChunkBytes, never under-approximate).
  [[nodiscard]] bool span_written_since(std::size_t offset, std::size_t len,
                                        std::uint64_t gen) const noexcept;
  /// Number of dirty-grid chunks in [offset, offset+len) of THIS region
  /// written since generation `gen` — the audit scheduler's table-pressure
  /// signal. Offsets and generations are local to this Database instance:
  /// in a sharded deployment every shard owns its own region, dirty grid,
  /// and write-generation clock, so a span or watermark from one shard is
  /// meaningless against another. The name carries the scope so a caller
  /// holding several shards cannot silently mix them up
  /// (ShardedDb::dirty_chunks_since is the shard-addressed variant).
  [[nodiscard]] std::uint64_t region_dirty_chunks_since(
      std::size_t offset, std::size_t len, std::uint64_t gen) const noexcept;

  // --- shadow group/free indexes (O(1) API hot path; see index.hpp) ---
  // One TableIndex per table, living outside the audited region. Kept in
  // sync by the stamp walk every store write makes: a write overlapping a
  // record's status or group word re-reads both and resyncs that record's
  // membership — so the index follows API writes, the audit's header
  // repairs, disk reloads / image installs, and the injector's
  // through-store corruption without any caller-side bookkeeping. Raw (store-bypassing) corruption
  // can desync it; consumers treat it as advisory and rebuild on demand.

  [[nodiscard]] const TableIndex& index(TableId t) const { return index_.at(t); }
  /// Rebuilds table `t`'s index from the region's header words (the
  /// stale-index recovery path; also counts obs db.index_rebuilds).
  void rebuild_index(TableId t);
  void rebuild_all_indexes();
  /// Full-rebuild cross-check: true iff the live index equals one rebuilt
  /// from the region bytes right now.
  [[nodiscard]] bool verify_index(TableId t) const;
  /// When enabled, DbApi cross-checks (and heals) the index before every
  /// splice — the debug-mode guard the splice equivalence argument rides
  /// on. Off by default: the check is O(N_records) per mutation.
  void set_index_cross_check(bool on) noexcept { index_cross_check_ = on; }
  [[nodiscard]] bool index_cross_check() const noexcept {
    return index_cross_check_;
  }

  // --- experiment oracle hook ---
  void set_observer(RegionObserver* observer) noexcept { observer_ = observer; }
  [[nodiscard]] RegionObserver* observer() const noexcept { return observer_; }

 private:
  Schema schema_;
  Layout layout_;
  std::vector<std::byte> region_;
  std::vector<std::byte> pristine_;
  std::vector<std::optional<LockInfo>> locks_;        // per table
  std::vector<std::vector<RecordMeta>> record_meta_;  // [table][record]
  std::vector<TableStats> table_stats_;               // per table
  RegionObserver* observer_ = nullptr;

  // Dirty-tracking state (see the write-time dirty tracking section above).
  std::uint64_t write_gen_ = 0;
  std::vector<std::uint64_t> chunk_gen_;               // region / kDirtyChunkBytes
  std::vector<std::uint64_t> table_gen_;               // per table
  std::vector<std::uint64_t> table_header_gen_;        // per table, headers
  std::vector<std::uint64_t> table_field_gen_;         // per table, field area
  /// A record's four generation stamps, kept together so stamping one
  /// record touches one cache line.
  struct alignas(32) RecordGens {
    std::uint64_t record, header, field, scrub;
  };
  std::vector<std::vector<RecordGens>> gens_;  // [table][record]

  /// The one walk behind every store write: bumps the write generation,
  /// stamps the dirty chunks and the tables and records [offset,
  /// offset+len) overlaps (header and field stamps included), resyncs the
  /// shadow index of every record whose status or group word it covers,
  /// and — when `scrub` — the scrub stamp of every record whose whole field
  /// area it covers.
  void stamp(std::size_t offset, std::size_t len, bool scrub) noexcept;

  std::vector<TableIndex> index_;  // per table, shadow of status/group words
  bool index_cross_check_ = false;
};

}  // namespace wtc::db
