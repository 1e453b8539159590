// Byte-level layout of the database region.
//
// The whole database lives in one contiguous pre-allocated region
// (§3.1.2): first the serialized system catalog (header, table
// descriptors, field descriptors), then every table's records
// back-to-back. Because the catalog is *inside* the region, random
// corruption can hit it, and — as the paper stresses — catalog corruption
// can make every database operation fail. The API therefore reads the
// catalog from the region on every access, via CatalogView, rather than
// from a safe shadow.
//
// Record format: a 16-byte header precedes the data portion of every
// record (§4.3.2) —
//   id_tag  : exact-valued record identifier derived from (table, index);
//             recomputable from the record's offset, which is what makes
//             single-ID corruption correctable by the structural audit
//   status  : kStatusFree or kStatusActive magic
//   group   : logical group number (free list, active groups); DBmove
//             relinks records between groups
//   next    : index of the logically adjacent record in the same group
//             (singly linked, kNilLink terminates) — the paper's footnote 3
//             notes the production system deliberately did NOT move to
//             doubly-linked robust structures, and neither do we
// followed by the table's 32-bit fields.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "db/schema.hpp"

namespace wtc::db {

inline constexpr std::uint32_t kCatalogMagic = 0xD8CA7A10u;
inline constexpr std::uint32_t kCatalogVersion = 1;
inline constexpr std::uint32_t kStatusFree = 0x46524545u;    // 'FREE'
inline constexpr std::uint32_t kStatusActive = 0x41435456u;  // 'ACTV'
inline constexpr std::uint32_t kNilLink = 0xFFFFFFFFu;
inline constexpr std::uint32_t kTagSeed = 0x5EC00000u;
inline constexpr std::uint32_t kMaxGroups = 16;

inline constexpr std::size_t kCatalogHeaderSize = 32;
inline constexpr std::size_t kTableDescriptorSize = 28;
inline constexpr std::size_t kFieldDescriptorSize = 24;
inline constexpr std::size_t kRecordHeaderSize = 16;

/// Expected id_tag of record `index` of table `table` — a pure function of
/// position, so the structural audit can recompute it from the offset.
[[nodiscard]] constexpr std::uint32_t expected_id_tag(TableId table,
                                                      RecordIndex index) noexcept {
  return kTagSeed ^ (static_cast<std::uint32_t>(table) << 20) ^ index;
}

/// Little-endian scalar access into the region.
[[nodiscard]] std::uint32_t load_u32(std::span<const std::byte> region,
                                     std::size_t offset) noexcept;
void store_u32(std::span<std::byte> region, std::size_t offset,
               std::uint32_t value) noexcept;
[[nodiscard]] std::int32_t load_i32(std::span<const std::byte> region,
                                    std::size_t offset) noexcept;
void store_i32(std::span<std::byte> region, std::size_t offset,
               std::int32_t value) noexcept;

/// Decoded in-region record header.
struct RecordHeader {
  std::uint32_t id_tag = 0;
  std::uint32_t status = 0;
  std::uint32_t group = 0;
  std::uint32_t next = kNilLink;
};

[[nodiscard]] RecordHeader load_record_header(std::span<const std::byte> region,
                                              std::size_t offset) noexcept;
void store_record_header(std::span<std::byte> region, std::size_t offset,
                         const RecordHeader& header) noexcept;

/// Computed (trusted, out-of-region) layout of one table.
struct TableLayout {
  std::size_t offset = 0;       ///< absolute offset of record 0
  std::size_t record_size = 0;  ///< header + fields, bytes
  RecordIndex num_records = 0;
  std::size_t num_fields = 0;
  std::size_t first_field_index = 0;  ///< into the flat field-descriptor array
};

// --- the record-header invariant (§4.3.2) ---
// Every record header carries its position-derived id tag, a Free/Active
// status, an in-range group that agrees with that status (in a dynamic
// table a Free record lives on the free list, group 0, and an Active one
// does not), and the index of the next record of its group. These
// functions are its one definition: the structural audit, the event
// check, the relink paths, the image loader and dbinspect all use them.

/// Fills `next` with the expected `next` link of every record of `table`:
/// the next record of the same group in index order, or kNilLink for a
/// group's last record and for a record whose group is out of range. A
/// pure function of the group words.
void group_links(std::span<const std::byte> region, const TableLayout& table,
                 std::vector<std::uint32_t>& next);

/// group_links's entry for record `r` (< table.num_records) alone: a walk
/// forward from `r` to the next record of its group, so it costs the
/// distance to that record instead of a pass over the table.
[[nodiscard]] std::uint32_t group_next(std::span<const std::byte> region,
                                       const TableLayout& table,
                                       RecordIndex r) noexcept;

/// One bit per violated clause of the invariant, in check order; the
/// lowest set bit is the first fault.
inline constexpr std::uint32_t kFaultIdTag = 1u << 0;
inline constexpr std::uint32_t kFaultStatus = 1u << 1;
inline constexpr std::uint32_t kFaultGroupRange = 1u << 2;
inline constexpr std::uint32_t kFaultStatusGroup = 1u << 3;
inline constexpr std::uint32_t kFaultLink = 1u << 4;

/// Faults of record `r` of table `t`'s header, 0 when it satisfies the
/// invariant. `expected_next` is the record's group_links entry.
[[nodiscard]] std::uint32_t header_faults(const RecordHeader& header, TableId t,
                                          RecordIndex r, bool dynamic,
                                          std::uint32_t expected_next) noexcept;

/// Trusted layout derived from the Schema. The *audit* subsystem uses this
/// (the paper's audit computes offsets "based on record sizes stored in
/// system tables"); the client-facing API goes through the in-region
/// CatalogView instead.
class Layout {
 public:
  static Layout compute(const Schema& schema);

  [[nodiscard]] std::size_t region_size() const noexcept { return region_size_; }
  [[nodiscard]] std::size_t catalog_size() const noexcept { return data_start_; }
  [[nodiscard]] std::size_t data_start() const noexcept { return data_start_; }
  [[nodiscard]] const std::vector<TableLayout>& tables() const noexcept {
    return tables_;
  }
  [[nodiscard]] const TableLayout& table(TableId t) const { return tables_.at(t); }

  [[nodiscard]] std::size_t record_offset(TableId t, RecordIndex r) const {
    const auto& tl = tables_.at(t);
    return tl.offset + static_cast<std::size_t>(r) * tl.record_size;
  }
  [[nodiscard]] std::size_t field_offset(TableId t, RecordIndex r, FieldId f) const {
    return record_offset(t, r) + kRecordHeaderSize + static_cast<std::size_t>(f) * 4;
  }

  /// Maps an absolute region offset back to (table, record) — used by the
  /// injection oracle and prioritized audit to attribute corruption.
  /// nullopt for catalog bytes.
  struct Location {
    TableId table;
    RecordIndex record;
    bool in_header;  ///< offset falls in the record header
  };
  [[nodiscard]] std::optional<Location> locate(std::size_t offset) const noexcept;

 private:
  std::size_t region_size_ = 0;
  std::size_t data_start_ = 0;
  std::vector<TableLayout> tables_;
};

/// Serializes the catalog (header + table descriptors + field descriptors)
/// into the front of `region` and formats every table's records as free.
void format_region(std::span<std::byte> region, const Schema& schema,
                   const Layout& layout);

/// Decoded view of a table descriptor as read from the region.
struct TableDescriptor {
  std::uint32_t flags = 0;  ///< bit 0: dynamic
  std::uint32_t num_records = 0;
  std::uint32_t record_size = 0;
  std::uint32_t table_offset = 0;
  std::uint32_t num_fields = 0;
  std::uint32_t first_field_index = 0;

  [[nodiscard]] bool dynamic() const noexcept { return (flags & 1u) != 0; }
};

/// Decoded view of a field descriptor as read from the region. This is the
/// catalog data the dynamic-data audit consults: range limits and the
/// default (recovery) value (§4.3.1).
struct FieldDescriptor {
  std::uint32_t flags = 0;  ///< bit0 dynamic, bit1 has_range, bits 8-9 role
  std::uint32_t ref_table = kNoTable;
  std::int32_t range_min = 0;
  std::int32_t range_max = 0;
  std::int32_t default_value = 0;

  [[nodiscard]] bool dynamic() const noexcept { return (flags & 1u) != 0; }
  [[nodiscard]] bool has_range() const noexcept { return (flags & 2u) != 0; }
  [[nodiscard]] FieldRole role() const noexcept {
    return static_cast<FieldRole>((flags >> 8) & 0x3u);
  }
};

/// Read-only decoder over the in-region catalog. All accessors validate
/// what they read and return nullopt on corruption, which callers surface
/// as Status::CatalogCorrupt — reproducing "errors in the system catalog
/// can cause all database operations to fail" (§3.2).
class CatalogView {
 public:
  explicit CatalogView(std::span<const std::byte> region) noexcept
      : region_(region) {}

  /// Header check: magic, version, table count sane, region size matches.
  [[nodiscard]] bool header_ok() const noexcept;
  [[nodiscard]] std::uint32_t table_count() const noexcept;

  /// Decodes table `t`'s descriptor, validating that the described extent
  /// lies inside the region.
  [[nodiscard]] std::optional<TableDescriptor> table(TableId t) const noexcept;
  /// table() for a caller that has already checked header_ok() and
  /// `t < table_count()`: decodes and validates without re-checking them.
  [[nodiscard]] std::optional<TableDescriptor> decode_table(TableId t) const noexcept;

  /// Decodes the descriptor of field `f` of table `t` (field index local
  /// to the table).
  [[nodiscard]] std::optional<FieldDescriptor> field(TableId t,
                                                     FieldId f) const noexcept;

 private:
  std::span<const std::byte> region_;
};

}  // namespace wtc::db
