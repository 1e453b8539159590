// Shadow group/free indexes over one table's record headers.
//
// The database region keeps each logical group's records on a singly
// linked chain in record-index order (layout.hpp), and the structural
// audit checks and repairs exactly that invariant. Maintaining it by
// rebuilding every chain on each alloc/free/move makes every mutating API
// call O(N_records); finding a free record by scanning headers makes
// DBalloc O(N_records) again. TableIndex is the fast access path over that
// slower, audited authoritative structure: an in-memory mirror of the
// membership information the chains encode — which records are free
// (status word) and which group each record belongs to (group word) — as
// flat two-level bitmaps, so the API can pop the lowest free slot and find
// a record's chain neighbours and splice only the affected `next` links.
//
// Each of the kMaxGroups group sets and the free set is a bitmap of one
// bit per record (64-bit words) plus a summary bitmap whose bit w says
// "word w is non-zero"; all of a table's bitmaps share one allocation.
// A neighbour query is a masked count-leading/trailing-zeros on the
// record's own word, and only when that word holds no candidate a scan of
// the summary, which is N/4096 words (256 at 2^20 records). Membership
// changes are O(1).
//
// The index lives OUTSIDE the audited region (like the redundant metadata
// of §4.3.3): injected corruption never touches it directly, and it never
// weakens an audit invariant because it stores no authoritative state —
// every entry is recomputable from the region's status/group words, which
// is exactly what rebuild-from-region and the cross-check do. It is kept
// in sync by the Database's stamp walk: any store write overlapping a
// record's status/group words re-reads them and resyncs that record, so
// API writes, audit repairs, disk reloads, image installs, and the
// injector's through-store corruption all update it automatically. Only
// raw corruption that bypasses the store can desync it — the same blind
// spot the incremental audit's periodic full sweep exists for — and the
// consumers treat it as advisory: DBalloc validates the popped record's
// status against the region and rebuilds on mismatch.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "db/layout.hpp"
#include "db/schema.hpp"

namespace wtc::db {

class TableIndex {
 public:
  /// Sentinel for "group word out of range": such records are on no chain
  /// (relink leaves them unlinked) and in no member set.
  static constexpr std::uint8_t kNoGroup = 0xFF;

  /// Resets to the state of a table whose every record has an out-of-range
  /// group and a non-free status (i.e. "member of nothing"); callers then
  /// sync() each record from its region header words.
  void reset(RecordIndex num_records);

  /// Resyncs record `r` from its region header words. Idempotent and O(1):
  /// one bit, and at most its summary bit, per set whose membership
  /// changes.
  void sync(RecordIndex r, std::uint32_t status, std::uint32_t group);

  /// Lowest-index record whose status word is kStatusFree (what the
  /// DBalloc scan would find), or nullopt when none.
  [[nodiscard]] std::optional<RecordIndex> first_free() const noexcept {
    return next_member(kFreeSet, 0);
  }

  /// Greatest member of group `g` below `r` — the record whose `next` link
  /// must point at/around `r` when splicing. `r` itself is never returned
  /// whether or not it is currently a member.
  [[nodiscard]] std::optional<RecordIndex> pred(std::uint32_t g,
                                                RecordIndex r) const noexcept {
    return g < kMaxGroups ? prev_member(g, r) : std::nullopt;
  }
  /// Smallest member of group `g` above `r` (r's chain successor).
  [[nodiscard]] std::optional<RecordIndex> succ(std::uint32_t g,
                                                RecordIndex r) const noexcept {
    return g < kMaxGroups ? next_member(g, std::size_t{r} + 1) : std::nullopt;
  }

  /// Number of records in group `g` (0 for out-of-range groups).
  [[nodiscard]] std::size_t member_count(std::uint32_t g) const noexcept {
    return g < kMaxGroups ? count_[g] : 0;
  }
  [[nodiscard]] std::size_t free_count() const noexcept {
    return count_[kFreeSet];
  }
  /// Cached group of record `r` (kNoGroup for out-of-range group words).
  [[nodiscard]] std::uint8_t group_of(RecordIndex r) const {
    return group_of_.at(r);
  }

  /// Exact-state comparison, used by the full-rebuild cross-check.
  [[nodiscard]] bool operator==(const TableIndex&) const = default;

 private:
  /// Sets 0..kMaxGroups-1 are the groups; the free set comes last.
  static constexpr std::size_t kFreeSet = kMaxGroups;
  static constexpr std::size_t kSets = kMaxGroups + 1;

  /// First bitmap word of `set`; its summary follows at words_.
  [[nodiscard]] const std::uint64_t* words(std::size_t set) const noexcept {
    return bits_.data() + set * (words_ + summary_words_);
  }
  [[nodiscard]] std::uint64_t* words(std::size_t set) noexcept {
    return bits_.data() + set * (words_ + summary_words_);
  }
  /// Adds `r` to `set` if it is not a member, removes it if it is.
  void flip(std::size_t set, RecordIndex r) noexcept;
  /// Lowest member of `set` at or above `from`.
  [[nodiscard]] std::optional<RecordIndex> next_member(
      std::size_t set, std::size_t from) const noexcept;
  /// Greatest member of `set` below `before`.
  [[nodiscard]] std::optional<RecordIndex> prev_member(
      std::size_t set, std::size_t before) const noexcept;

  std::size_t words_ = 0;          ///< bitmap words per set, ceil(N / 64)
  std::size_t summary_words_ = 0;  ///< summary words per set, ceil(words_ / 64)
  /// kSets blocks of words_ bitmap words followed by summary_words_ words.
  std::vector<std::uint64_t> bits_;
  std::array<std::size_t, kSets> count_{};  ///< members per set
  std::vector<std::uint8_t> group_of_;      ///< per record; kNoGroup = none
};

}  // namespace wtc::db
