// Schema description for the controller's in-memory database.
//
// Mirrors the paper's database organization (§3.1.2): a set of fixed-size
// tables laid out back-to-back in one contiguous, fully pre-allocated
// memory region. Each table holds fixed-size records; each record carries a
// header (record identifier + logical-group links) followed by 32-bit data
// fields. The system catalog — table/field descriptors, allowed value
// ranges, defaults — is itself serialized at the front of the region and is
// therefore exposed to the same corruption the audit must detect.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace wtc::db {

using TableId = std::uint16_t;
using FieldId = std::uint16_t;
using RecordIndex = std::uint32_t;

inline constexpr TableId kNoTable = 0xFFFF;
/// Upper bound on fields per table: the range audit records a record's
/// failing fields as one bit each in a 64-bit mask.
inline constexpr std::size_t kMaxFieldsPerTable = 64;

/// Referential role a field plays in the semantic-integrity graph (§4.3.3).
enum class FieldRole : std::uint8_t {
  Plain = 0,       ///< ordinary data
  PrimaryKey = 1,  ///< the table's key attribute
  ForeignKey = 2,  ///< references another table's primary key
};

/// Static vs dynamic data (§3.1.2): static fields hold configuration that
/// never changes during operation and are covered by the golden checksum;
/// dynamic fields change per call and are covered by range/semantic audit.
enum class DataKind : std::uint8_t { Static = 0, Dynamic = 1 };

/// Descriptor of one 32-bit field.
struct FieldSpec {
  std::string name;
  DataKind kind = DataKind::Dynamic;
  FieldRole role = FieldRole::Plain;
  TableId ref_table = kNoTable;  ///< for ForeignKey: referenced table
  /// Allowed [min, max] for dynamic-data range audit; nullopt when the
  /// catalog has no enforceable rule for this attribute (§4.4.2 motivates
  /// selective monitoring for exactly these).
  std::optional<std::int32_t> range_min;
  std::optional<std::int32_t> range_max;
  std::int32_t default_value = 0;  ///< recovery value for range-audit reset

  [[nodiscard]] bool has_range() const noexcept {
    return range_min.has_value() && range_max.has_value();
  }
};

/// Descriptor of one table.
struct TableSpec {
  std::string name;
  /// Dynamic tables have records allocated/freed at runtime (per call);
  /// static tables are fully populated at startup and never change.
  bool dynamic = true;
  RecordIndex num_records = 0;
  std::vector<FieldSpec> fields;
};

/// A whole-database schema.
struct Schema {
  std::vector<TableSpec> tables;

  [[nodiscard]] TableId table_id(std::string_view name) const;
  [[nodiscard]] FieldId field_id(TableId table, std::string_view name) const;
};

/// Fluent builder so schema definitions read like DDL.
class SchemaBuilder {
 public:
  SchemaBuilder& table(std::string name, RecordIndex num_records, bool dynamic = true);
  SchemaBuilder& field(FieldSpec spec);
  /// Shorthand for a plain dynamic field with a range rule.
  SchemaBuilder& ranged(std::string name, std::int32_t min, std::int32_t max,
                        std::int32_t default_value = 0);
  /// Shorthand for a dynamic field with no enforceable range rule.
  SchemaBuilder& unruled(std::string name);
  /// Shorthand for a static configuration field.
  SchemaBuilder& static_field(std::string name, std::int32_t value);
  SchemaBuilder& primary_key(std::string name);
  SchemaBuilder& foreign_key(std::string name, std::string_view ref_table);

  [[nodiscard]] Schema build() &&;

 private:
  TableSpec& current();
  Schema schema_;
  std::vector<std::pair<std::size_t, std::pair<std::size_t, std::string>>>
      pending_fk_;  // (table idx, (field idx, ref table name))
};

}  // namespace wtc::db
