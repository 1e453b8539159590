#include "db/schema.hpp"

#include <stdexcept>

namespace wtc::db {

TableId Schema::table_id(std::string_view name) const {
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].name == name) {
      return static_cast<TableId>(i);
    }
  }
  throw std::out_of_range("schema: no table named " + std::string(name));
}

FieldId Schema::field_id(TableId table, std::string_view name) const {
  const auto& fields = tables.at(table).fields;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].name == name) {
      return static_cast<FieldId>(i);
    }
  }
  throw std::out_of_range("schema: no field named " + std::string(name));
}

TableSpec& SchemaBuilder::current() {
  if (schema_.tables.empty()) {
    throw std::logic_error("schema builder: field before any table()");
  }
  return schema_.tables.back();
}

SchemaBuilder& SchemaBuilder::table(std::string name, RecordIndex num_records,
                                    bool dynamic) {
  TableSpec spec;
  spec.name = std::move(name);
  spec.num_records = num_records;
  spec.dynamic = dynamic;
  schema_.tables.push_back(std::move(spec));
  return *this;
}

SchemaBuilder& SchemaBuilder::field(FieldSpec spec) {
  current().fields.push_back(std::move(spec));
  return *this;
}

SchemaBuilder& SchemaBuilder::ranged(std::string name, std::int32_t min,
                                     std::int32_t max, std::int32_t default_value) {
  FieldSpec spec;
  spec.name = std::move(name);
  spec.kind = DataKind::Dynamic;
  spec.range_min = min;
  spec.range_max = max;
  spec.default_value = default_value;
  return field(std::move(spec));
}

SchemaBuilder& SchemaBuilder::unruled(std::string name) {
  FieldSpec spec;
  spec.name = std::move(name);
  spec.kind = DataKind::Dynamic;
  return field(std::move(spec));
}

SchemaBuilder& SchemaBuilder::static_field(std::string name, std::int32_t value) {
  FieldSpec spec;
  spec.name = std::move(name);
  spec.kind = DataKind::Static;
  spec.default_value = value;
  return field(std::move(spec));
}

SchemaBuilder& SchemaBuilder::primary_key(std::string name) {
  FieldSpec spec;
  spec.name = std::move(name);
  spec.kind = DataKind::Dynamic;
  spec.role = FieldRole::PrimaryKey;
  return field(std::move(spec));
}

SchemaBuilder& SchemaBuilder::foreign_key(std::string name, std::string_view ref_table) {
  FieldSpec spec;
  spec.name = std::move(name);
  spec.kind = DataKind::Dynamic;
  spec.role = FieldRole::ForeignKey;
  pending_fk_.push_back({schema_.tables.size() - 1,
                         {current().fields.size(), std::string(ref_table)}});
  return field(std::move(spec));
}

Schema SchemaBuilder::build() && {
  // Resolve foreign-key table names now that all tables exist (schemas may
  // reference tables defined later, e.g. the Process->Connection->Resource
  // loop closes back on the first table).
  for (const auto& [table_idx, fk] : pending_fk_) {
    const auto& [field_idx, ref_name] = fk;
    schema_.tables[table_idx].fields[field_idx].ref_table =
        schema_.table_id(ref_name);
  }
  for (const auto& table : schema_.tables) {
    if (table.num_records == 0 || table.fields.empty()) {
      throw std::logic_error("schema builder: table '" + table.name +
                             "' needs records and fields");
    }
    if (table.fields.size() > kMaxFieldsPerTable) {
      throw std::logic_error("schema builder: table '" + table.name +
                             "' has more than " +
                             std::to_string(kMaxFieldsPerTable) + " fields");
    }
  }
  return std::move(schema_);
}

}  // namespace wtc::db
