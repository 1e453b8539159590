#include "db/layout.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

namespace wtc::db {

std::uint32_t load_u32(std::span<const std::byte> region, std::size_t offset) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, region.data() + offset, sizeof(v));
  return v;
}

void store_u32(std::span<std::byte> region, std::size_t offset,
               std::uint32_t value) noexcept {
  std::memcpy(region.data() + offset, &value, sizeof(value));
}

std::int32_t load_i32(std::span<const std::byte> region, std::size_t offset) noexcept {
  std::int32_t v = 0;
  std::memcpy(&v, region.data() + offset, sizeof(v));
  return v;
}

void store_i32(std::span<std::byte> region, std::size_t offset,
               std::int32_t value) noexcept {
  std::memcpy(region.data() + offset, &value, sizeof(value));
}

RecordHeader load_record_header(std::span<const std::byte> region,
                                std::size_t offset) noexcept {
  RecordHeader h;
  h.id_tag = load_u32(region, offset);
  h.status = load_u32(region, offset + 4);
  h.group = load_u32(region, offset + 8);
  h.next = load_u32(region, offset + 12);
  return h;
}

void store_record_header(std::span<std::byte> region, std::size_t offset,
                         const RecordHeader& header) noexcept {
  store_u32(region, offset, header.id_tag);
  store_u32(region, offset + 4, header.status);
  store_u32(region, offset + 8, header.group);
  store_u32(region, offset + 12, header.next);
}

namespace {

std::uint32_t group_word(std::span<const std::byte> region, const TableLayout& table,
                         RecordIndex r) noexcept {
  return load_u32(region,
                  table.offset + static_cast<std::size_t>(r) * table.record_size + 8);
}

}  // namespace

void group_links(std::span<const std::byte> region, const TableLayout& table,
                 std::vector<std::uint32_t>& next) {
  next.assign(table.num_records, kNilLink);
  std::array<std::uint32_t, kMaxGroups> last_in_group;
  last_in_group.fill(kNilLink);
  for (RecordIndex r = 0; r < table.num_records; ++r) {
    const std::uint32_t group = group_word(region, table, r);
    if (group < kMaxGroups) {
      if (last_in_group[group] != kNilLink) {
        next[last_in_group[group]] = r;
      }
      last_in_group[group] = r;
    }
  }
}

std::uint32_t group_next(std::span<const std::byte> region, const TableLayout& table,
                         RecordIndex r) noexcept {
  const std::uint32_t group = group_word(region, table, r);
  if (group >= kMaxGroups) {
    return kNilLink;
  }
  for (RecordIndex n = r + 1; n < table.num_records; ++n) {
    if (group_word(region, table, n) == group) {
      return n;
    }
  }
  return kNilLink;
}

std::uint32_t header_faults(const RecordHeader& header, TableId t, RecordIndex r,
                            bool dynamic, std::uint32_t expected_next) noexcept {
  std::uint32_t faults = 0;
  if (header.id_tag != expected_id_tag(t, r)) {
    faults |= kFaultIdTag;
  }
  if (header.status != kStatusFree && header.status != kStatusActive) {
    faults |= kFaultStatus;
  }
  if (header.group >= kMaxGroups) {
    faults |= kFaultGroupRange;
  }
  if (dynamic && ((header.status == kStatusFree && header.group != 0) ||
                  (header.status == kStatusActive && header.group == 0))) {
    faults |= kFaultStatusGroup;
  }
  if (header.next != expected_next) {
    faults |= kFaultLink;
  }
  return faults;
}

Layout Layout::compute(const Schema& schema) {
  Layout layout;
  std::size_t total_fields = 0;
  for (const auto& table : schema.tables) {
    total_fields += table.fields.size();
  }
  layout.data_start_ = kCatalogHeaderSize +
                       schema.tables.size() * kTableDescriptorSize +
                       total_fields * kFieldDescriptorSize;

  std::size_t cursor = layout.data_start_;
  std::size_t field_index = 0;
  for (const auto& table : schema.tables) {
    TableLayout tl;
    tl.offset = cursor;
    tl.record_size = kRecordHeaderSize + table.fields.size() * 4;
    tl.num_records = table.num_records;
    tl.num_fields = table.fields.size();
    tl.first_field_index = field_index;
    field_index += table.fields.size();
    cursor += tl.record_size * table.num_records;
    layout.tables_.push_back(tl);
  }
  layout.region_size_ = cursor;
  return layout;
}

std::optional<Layout::Location> Layout::locate(std::size_t offset) const noexcept {
  if (offset < data_start_) {
    return std::nullopt;  // catalog
  }
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto& tl = tables_[t];
    const std::size_t end = tl.offset + tl.record_size * tl.num_records;
    if (offset >= tl.offset && offset < end) {
      const std::size_t within = offset - tl.offset;
      Location loc;
      loc.table = static_cast<TableId>(t);
      loc.record = static_cast<RecordIndex>(within / tl.record_size);
      loc.in_header = (within % tl.record_size) < kRecordHeaderSize;
      return loc;
    }
  }
  return std::nullopt;
}

namespace {

std::uint32_t field_flags(const FieldSpec& field) {
  std::uint32_t flags = 0;
  if (field.kind == DataKind::Dynamic) {
    flags |= 1u;
  }
  if (field.has_range()) {
    flags |= 2u;
  }
  flags |= static_cast<std::uint32_t>(field.role) << 8;
  return flags;
}

}  // namespace

void format_region(std::span<std::byte> region, const Schema& schema,
                   const Layout& layout) {
  if (region.size() != layout.region_size()) {
    throw std::invalid_argument("format_region: region size mismatch");
  }
  std::memset(region.data(), 0, region.size());

  // --- catalog header ---
  store_u32(region, 0, kCatalogMagic);
  store_u32(region, 4, kCatalogVersion);
  store_u32(region, 8, static_cast<std::uint32_t>(schema.tables.size()));
  std::size_t total_fields = 0;
  for (const auto& table : schema.tables) {
    total_fields += table.fields.size();
  }
  store_u32(region, 12, static_cast<std::uint32_t>(total_fields));
  store_u32(region, 16, static_cast<std::uint32_t>(layout.region_size()));
  store_u32(region, 20, static_cast<std::uint32_t>(layout.data_start()));
  // bytes 24..31 reserved (zero)

  // --- table descriptors ---
  for (std::size_t t = 0; t < schema.tables.size(); ++t) {
    const auto& spec = schema.tables[t];
    const auto& tl = layout.tables()[t];
    const std::size_t at = kCatalogHeaderSize + t * kTableDescriptorSize;
    store_u32(region, at + 0, spec.dynamic ? 1u : 0u);
    store_u32(region, at + 4, tl.num_records);
    store_u32(region, at + 8, static_cast<std::uint32_t>(tl.record_size));
    store_u32(region, at + 12, static_cast<std::uint32_t>(tl.offset));
    store_u32(region, at + 16, static_cast<std::uint32_t>(tl.num_fields));
    store_u32(region, at + 20, static_cast<std::uint32_t>(tl.first_field_index));
    // at + 24 reserved
  }

  // --- field descriptors ---
  const std::size_t fields_base =
      kCatalogHeaderSize + schema.tables.size() * kTableDescriptorSize;
  std::size_t flat = 0;
  for (const auto& table : schema.tables) {
    for (const auto& field : table.fields) {
      const std::size_t at = fields_base + flat * kFieldDescriptorSize;
      store_u32(region, at + 0, field_flags(field));
      store_u32(region, at + 4, field.ref_table);
      store_i32(region, at + 8, field.range_min.value_or(0));
      store_i32(region, at + 12, field.range_max.value_or(0));
      store_i32(region, at + 16, field.default_value);
      // at + 20 reserved
      ++flat;
    }
  }

  // --- records: format every record as free, linked into group 0 (the
  // free list) in index order; static tables get their default values and
  // Active status since their records are permanently in use ---
  for (std::size_t t = 0; t < schema.tables.size(); ++t) {
    const auto& spec = schema.tables[t];
    const auto& tl = layout.tables()[t];
    for (RecordIndex r = 0; r < tl.num_records; ++r) {
      const std::size_t at = layout.record_offset(static_cast<TableId>(t), r);
      RecordHeader header;
      header.id_tag = expected_id_tag(static_cast<TableId>(t), r);
      header.status = spec.dynamic ? kStatusFree : kStatusActive;
      header.group = 0;
      header.next = (r + 1 < tl.num_records) ? r + 1 : kNilLink;
      store_record_header(region, at, header);
      for (std::size_t f = 0; f < spec.fields.size(); ++f) {
        store_i32(region, at + kRecordHeaderSize + f * 4,
                  spec.fields[f].default_value);
      }
    }
  }
}

bool CatalogView::header_ok() const noexcept {
  if (region_.size() < kCatalogHeaderSize) {
    return false;
  }
  if (load_u32(region_, 0) != kCatalogMagic ||
      load_u32(region_, 4) != kCatalogVersion) {
    return false;
  }
  const std::uint32_t num_tables = load_u32(region_, 8);
  const std::uint32_t total_fields = load_u32(region_, 12);
  const std::uint32_t region_size = load_u32(region_, 16);
  const std::uint32_t data_start = load_u32(region_, 20);
  if (region_size != region_.size()) {
    return false;
  }
  const std::size_t expected_data_start = kCatalogHeaderSize +
                                          num_tables * kTableDescriptorSize +
                                          total_fields * kFieldDescriptorSize;
  return data_start == expected_data_start && data_start <= region_.size();
}

std::uint32_t CatalogView::table_count() const noexcept {
  return region_.size() >= kCatalogHeaderSize ? load_u32(region_, 8) : 0;
}

std::optional<TableDescriptor> CatalogView::table(TableId t) const noexcept {
  if (!header_ok() || t >= table_count()) {
    return std::nullopt;
  }
  return decode_table(t);
}

std::optional<TableDescriptor> CatalogView::decode_table(TableId t) const noexcept {
  const std::size_t at = kCatalogHeaderSize + t * kTableDescriptorSize;
  TableDescriptor d;
  d.flags = load_u32(region_, at + 0);
  d.num_records = load_u32(region_, at + 4);
  d.record_size = load_u32(region_, at + 8);
  d.table_offset = load_u32(region_, at + 12);
  d.num_fields = load_u32(region_, at + 16);
  d.first_field_index = load_u32(region_, at + 20);

  // Sanity: the described extent must fit the region and the record size
  // must cover the header plus the declared fields. 64-bit arithmetic:
  // corrupted counts must not wrap the validation itself.
  if (static_cast<std::uint64_t>(d.record_size) <
      kRecordHeaderSize + static_cast<std::uint64_t>(d.num_fields) * 4) {
    return std::nullopt;
  }
  const std::uint64_t extent = static_cast<std::uint64_t>(d.table_offset) +
                               static_cast<std::uint64_t>(d.record_size) * d.num_records;
  if (extent > region_.size() || d.table_offset < load_u32(region_, 20)) {
    return std::nullopt;
  }
  return d;
}

std::optional<FieldDescriptor> CatalogView::field(TableId t, FieldId f) const noexcept {
  const auto table_desc = table(t);
  if (!table_desc || f >= table_desc->num_fields) {
    return std::nullopt;
  }
  const std::size_t fields_base =
      kCatalogHeaderSize + table_count() * kTableDescriptorSize;
  const std::size_t at =
      fields_base +
      (static_cast<std::size_t>(table_desc->first_field_index) + f) *
          kFieldDescriptorSize;
  if (at + kFieldDescriptorSize > region_.size()) {
    return std::nullopt;
  }
  FieldDescriptor d;
  d.flags = load_u32(region_, at + 0);
  d.ref_table = load_u32(region_, at + 4);
  d.range_min = load_i32(region_, at + 8);
  d.range_max = load_i32(region_, at + 12);
  d.default_value = load_i32(region_, at + 16);
  return d;
}

}  // namespace wtc::db
