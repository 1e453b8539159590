#include <gtest/gtest.h>

#include "db/schema.hpp"

namespace wtc::db {
namespace {

TEST(SchemaBuilder, BuildsTablesAndFields) {
  SchemaBuilder b;
  b.table("A", 10).ranged("x", 0, 5, 2).unruled("y");
  b.table("B", 20, /*dynamic=*/false).static_field("z", 42);
  const Schema schema = std::move(b).build();

  ASSERT_EQ(schema.tables.size(), 2u);
  EXPECT_EQ(schema.tables[0].name, "A");
  EXPECT_TRUE(schema.tables[0].dynamic);
  EXPECT_EQ(schema.tables[0].num_records, 10u);
  ASSERT_EQ(schema.tables[0].fields.size(), 2u);
  EXPECT_TRUE(schema.tables[0].fields[0].has_range());
  EXPECT_EQ(schema.tables[0].fields[0].default_value, 2);
  EXPECT_FALSE(schema.tables[0].fields[1].has_range());
  EXPECT_EQ(schema.tables[1].fields[0].kind, DataKind::Static);
  EXPECT_EQ(schema.tables[1].fields[0].default_value, 42);
}

TEST(SchemaBuilder, ResolvesForwardForeignKeys) {
  SchemaBuilder b;
  b.table("First", 4).primary_key("id").foreign_key("other", "Second");
  b.table("Second", 4).primary_key("id").foreign_key("back", "First");
  const Schema schema = std::move(b).build();
  EXPECT_EQ(schema.tables[0].fields[1].ref_table, 1);
  EXPECT_EQ(schema.tables[1].fields[1].ref_table, 0);
  EXPECT_EQ(schema.tables[0].fields[1].role, FieldRole::ForeignKey);
}

TEST(SchemaBuilder, LookupHelpers) {
  SchemaBuilder b;
  b.table("T", 1).unruled("a").unruled("b");
  const Schema schema = std::move(b).build();
  EXPECT_EQ(schema.table_id("T"), 0);
  EXPECT_EQ(schema.field_id(0, "b"), 1);
  EXPECT_THROW((void)schema.table_id("missing"), std::out_of_range);
  EXPECT_THROW((void)schema.field_id(0, "missing"), std::out_of_range);
}

TEST(SchemaBuilder, RejectsInvalidConstructs) {
  {
    SchemaBuilder b;
    EXPECT_THROW(b.unruled("orphan"), std::logic_error);  // field before table
  }
  {
    SchemaBuilder b;
    b.table("Empty", 5);  // no fields
    EXPECT_THROW(std::move(b).build(), std::logic_error);
  }
  {
    SchemaBuilder b;
    b.table("T", 1).foreign_key("fk", "Nowhere");
    EXPECT_THROW(std::move(b).build(), std::out_of_range);
  }
}

TEST(Schema, TableWithZeroRecordsRejected) {
  SchemaBuilder b;
  b.table("Zero", 0).unruled("x");
  EXPECT_THROW(std::move(b).build(), std::logic_error);
}

TEST(Schema, TableWithMoreThan64FieldsRejected) {
  // The range audit keeps one violation bit per field in a 64-bit mask.
  SchemaBuilder full;
  full.table("Full", 1);
  for (std::size_t f = 0; f < 64; ++f) {
    full.unruled(std::to_string(f));
  }
  EXPECT_EQ(std::move(full).build().tables[0].fields.size(), 64u);

  SchemaBuilder wide;
  wide.table("Wide", 1);
  for (std::size_t f = 0; f < 65; ++f) {
    wide.unruled(std::to_string(f));
  }
  EXPECT_THROW(std::move(wide).build(), std::logic_error);
}

}  // namespace
}  // namespace wtc::db
