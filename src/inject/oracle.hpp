// The corruption oracle: experiment-side accounting of injected database
// errors.
//
// Attached as the database's RegionObserver and the audit subsystem's
// ReportSink, it tracks every injected bit flip until its fate is decided,
// reproducing the paper's outcome taxonomy (Table 3):
//
//   Escaped     — a client read the corrupted bytes through the API before
//                 any audit detected them ("errors escaped from audits and
//                 affecting application");
//   Caught      — an audit finding localized the corruption first
//                 ("errors caught by audits"), with detection latency;
//   Overwritten — a legitimate write replaced the corrupted bytes before
//                 anyone noticed (no effect);
//   Latent      — still undetected and unread at the end of the run
//                 (no effect — "errors ... at memory locations that are
//                 not used", §3.2).
//
// The oracle is pure instrumentation: the audit subsystem never reads it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "audit/report.hpp"
#include "common/stats.hpp"
#include "db/database.hpp"
#include "sim/time.hpp"

namespace wtc::inject {

enum class ErrorFate : std::uint8_t { Pending, Escaped, Caught, Overwritten };

/// What kind of data the flip landed in — drives the Table-4 breakdown.
enum class TargetKind : std::uint8_t {
  Catalog,       ///< system catalog bytes (static data)
  StaticTable,   ///< record bytes of a static table (static data)
  RecordHeader,  ///< structural metadata of a dynamic-table record
  RangedField,   ///< dynamic field with a catalog range rule
  KeyField,      ///< primary/foreign key (semantic-checkable)
  UnruledField,  ///< dynamic field with no enforceable rule
};

struct InjectionRecord {
  std::uint64_t id = 0;
  std::size_t offset = 0;
  std::uint8_t bit = 0;
  sim::Time injected_at = 0;
  TargetKind kind = TargetKind::UnruledField;
  ErrorFate fate = ErrorFate::Pending;
  sim::Time decided_at = 0;
  /// For Caught: which audit technique got it.
  std::optional<audit::Technique> caught_by;
  /// Bytes of this injection still diverging from legitimate content.
  std::uint8_t live_bytes = 0;
};

struct OracleSummary {
  std::size_t injected = 0;
  std::size_t escaped = 0;
  std::size_t caught = 0;
  std::size_t overwritten = 0;
  std::size_t latent = 0;
  common::RunningStats detection_latency_s;  ///< Caught only

  [[nodiscard]] std::size_t no_effect() const noexcept {
    return overwritten + latent;
  }
};

class CorruptionOracle final : public db::RegionObserver, public audit::ReportSink {
 public:
  CorruptionOracle(const db::Database& db, std::function<sim::Time()> clock);

  /// Registers a fresh single-bit flip at `offset` (already applied to the
  /// region by the injector, so `offset` lies inside the region).
  std::uint64_t record_injection(std::size_t offset, std::uint8_t bit);

  // --- RegionObserver ---
  void on_legitimate_write(std::size_t offset, std::size_t len) override;
  void on_client_read(sim::ProcessId pid, std::size_t offset,
                      std::size_t len) override;

  // --- ReportSink (audit findings) ---
  void on_finding(const audit::Finding& finding) override;

  [[nodiscard]] OracleSummary summary() const;
  /// Sizes the injection log and byte filters for `injections`
  /// injections, so recording up to that many allocates nothing.
  void reserve(std::size_t injections);
  [[nodiscard]] const std::vector<InjectionRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::uint64_t audit_findings() const noexcept { return findings_; }
  [[nodiscard]] std::optional<sim::Time> first_finding_time() const noexcept {
    return first_finding_;
  }

 private:
  [[nodiscard]] TargetKind classify_offset(std::size_t offset) const;
  void decide(InjectionRecord& record, ErrorFate fate,
              std::optional<audit::Technique> technique);
  /// Per-region-byte occupancy: how many injections in some state sit at
  /// each byte (kept only for occupied bytes — injections are sparse), and
  /// a 64-bit-word bitmap with the bit of every occupied byte set, so a
  /// span is tested in O(len / 64).
  class ByteFilter {
   public:
    explicit ByteFilter(std::size_t bytes) : words_((bytes + 63) / 64, 0) {}
    [[nodiscard]] bool occupied(std::size_t offset) const noexcept {
      return ((words_[offset / 64] >> (offset % 64)) & 1u) != 0;
    }
    void add(std::size_t offset);
    void drop(std::size_t offset);
    void reserve(std::size_t bytes) { count_.reserve(bytes); }
    /// True if any byte of [offset, offset+len) is occupied.
    [[nodiscard]] bool any(std::size_t offset, std::size_t len) const noexcept;

   private:
    [[nodiscard]] std::vector<std::pair<std::size_t, std::uint32_t>>::iterator
    find(std::size_t offset);

    /// (offset, count) of every occupied byte, sorted by offset: a flat
    /// vector keeps its capacity as bytes come and go.
    std::vector<std::pair<std::size_t, std::uint32_t>> count_;
    std::vector<std::uint64_t> words_;
  };

  /// Visits injections with live bytes inside [offset, offset+len), in
  /// injection order — but returns at once when `filter` shows no occupied
  /// byte in the span, the common case on every read and write.
  template <typename Fn>
  void for_overlapping(const ByteFilter& filter, std::size_t offset,
                       std::size_t len, Fn&& fn);

  const db::Database& db_;
  std::function<sim::Time()> clock_;
  std::vector<InjectionRecord> records_;
  // Live-byte filters. `live_` counts injections whose live_bytes is
  // non-zero: an escaped injection stays live until a write replaces its
  // byte, so a later flip there can raise a count above one. Only a write
  // changes a record that is no longer pending, so writes test `live_`;
  // reads and findings test `pending_`, the injections still undecided.
  ByteFilter live_;
  ByteFilter pending_;
  std::uint64_t findings_ = 0;
  std::optional<sim::Time> first_finding_;
};

}  // namespace wtc::inject
