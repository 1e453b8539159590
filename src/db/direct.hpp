// Direct-memory-access operations on the database region.
//
// The audit process accesses the database directly rather than through the
// DB API (Figure 1) — "bypassing the locking and access control mechanisms
// managed by the API". These helpers are that direct path. The chain
// rule they restore is db::group_links (layout.hpp), the same function
// the structural audit checks against, so the API, the audit and the
// image loader hold one invariant.
#pragma once

#include "db/database.hpp"

namespace wtc::db::direct {

/// Stores db::group_links's expected `next` into every record of table `t`
/// whose link differs, with note_write; unchanged words are not rewritten.
/// Records with out-of-range group values are left unlinked. O(N_records):
/// the audit's recovery paths use it (and it doubles as the reference the
/// shadow-index cross-check and the splice-equivalence bench compare
/// against); the API hot path uses splice_links instead.
void relink_table(Database& db, TableId t);

/// Splices record `r` into its group chain after the caller changed its
/// group word from `old_group` to the value now stored in the region,
/// rewriting only the affected links: the old chain's predecessor inherits
/// `old_next` (r's link before the change), r links to its successor in
/// the new chain, and the new chain's predecessor links to r. Requires the
/// shadow index to be in sync with the region (the caller's header store
/// resynced r itself via note_write). Provided the chains satisfied the
/// structural invariant beforehand, the result is byte-identical to
/// relink_table — the invariant only depends on group words, a group
/// change at `r` can only alter those three links, and unchanged words are
/// not rewritten (so dirty-tracking stamps and oracle overwrite accounting
/// match too). Each neighbour is one masked bit scan of the record's index
/// word, or of at most N_records/4096 summary words, instead of an
/// O(N_records) relink.
void splice_links(Database& db, TableId t, RecordIndex r,
                  std::uint32_t old_group, std::uint32_t old_next);

/// Frees record `r` of table `t` in place: status Free, group 0 (free
/// list), fields reset to catalog defaults, chains relinked. This is the
/// audit's "record is freed as a preemptive measure" recovery (§4.3.1) and
/// the zombie-record recovery of the semantic audit (§4.3.3).
void free_record(Database& db, TableId t, RecordIndex r);

/// Repairs record `r`'s header in place: id_tag recomputed from the
/// offset, invalid status downgraded to Free (dropping the record),
/// invalid group reset to the free list; chains relinked.
void repair_header(Database& db, TableId t, RecordIndex r);

/// Writes `value` into a field directly (range-audit "reset the field to
/// its default value" recovery).
void write_field(Database& db, TableId t, RecordIndex r, FieldId f,
                 std::int32_t value);

/// Reads a field directly (no locks, no API accounting).
[[nodiscard]] std::int32_t read_field(const Database& db, TableId t, RecordIndex r,
                                      FieldId f);

/// Reads a record header directly.
[[nodiscard]] RecordHeader read_header(const Database& db, TableId t, RecordIndex r);

}  // namespace wtc::db::direct
