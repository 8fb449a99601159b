#include "table/table.h"

#include <gtest/gtest.h>

#include "table/schema.h"

namespace shareinsights {
namespace {

Schema TestSchema() {
  return Schema({Field{"name", ValueType::kString},
                 Field{"count", ValueType::kInt64}});
}

TEST(SchemaTest, LookupByName) {
  Schema schema = TestSchema();
  EXPECT_EQ(schema.num_fields(), 2u);
  EXPECT_EQ(*schema.IndexOf("count"), 1u);
  EXPECT_FALSE(schema.IndexOf("missing").has_value());
  EXPECT_TRUE(schema.Contains("name"));
}

TEST(SchemaTest, RequireIndexErrorListsColumns) {
  Schema schema = TestSchema();
  auto missing = schema.RequireIndex("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kSchemaError);
  EXPECT_NE(missing.status().message().find("nope"), std::string::npos);
  EXPECT_NE(missing.status().message().find("name, count"),
            std::string::npos);
}

TEST(SchemaTest, AddFieldReplacesTypeForExistingName) {
  Schema schema = TestSchema();
  schema.AddField(Field{"count", ValueType::kDouble});
  EXPECT_EQ(schema.num_fields(), 2u);
  EXPECT_EQ(schema.field(1).type, ValueType::kDouble);
  schema.AddField(Field{"extra", ValueType::kBool});
  EXPECT_EQ(schema.num_fields(), 3u);
}

TEST(SchemaTest, FromNamesDefaultsToString) {
  Schema schema = Schema::FromNames({"a", "b"});
  EXPECT_EQ(schema.field(0).type, ValueType::kString);
  EXPECT_EQ(schema.ToString(), "a:string, b:string");
}

TEST(TableTest, CreateValidatesArity) {
  auto bad = Table::Create(TestSchema(), {{Value("x")}});
  EXPECT_FALSE(bad.ok());
  auto ragged =
      Table::Create(TestSchema(), {{Value("x")}, {Value(1.0), Value(2.0)}});
  EXPECT_FALSE(ragged.ok());
}

TEST(TableTest, BuilderAppendsRows) {
  TableBuilder builder(TestSchema());
  ASSERT_TRUE(builder.AppendRow({Value("a"), Value(static_cast<int64_t>(1))})
                  .ok());
  ASSERT_TRUE(builder.AppendRow({Value("b"), Value(static_cast<int64_t>(2))})
                  .ok());
  EXPECT_FALSE(builder.AppendRow({Value("short")}).ok());
  auto table = builder.Finish();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 2u);
  EXPECT_EQ((*table)->at(1, 0), Value("b"));
  EXPECT_EQ((*table)->Row(0)[1], Value(static_cast<int64_t>(1)));
}

TEST(TableTest, ColumnByName) {
  TableBuilder builder(TestSchema());
  (void)builder.AppendRow({Value("a"), Value(static_cast<int64_t>(5))});
  auto table = *builder.Finish();
  auto column = table->ColumnByName("count");
  ASSERT_TRUE(column.ok());
  EXPECT_EQ((*column)->at(0), Value(static_cast<int64_t>(5)));
  EXPECT_FALSE(table->ColumnByName("missing").ok());
}

TEST(TableTest, EmptyTable) {
  TablePtr table = Table::Empty(TestSchema());
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_EQ(table->num_columns(), 2u);
}

TEST(TableTest, DisplayStringTruncates) {
  TableBuilder builder(TestSchema());
  for (int64_t i = 0; i < 30; ++i) {
    (void)builder.AppendRow({Value("row"), Value(i)});
  }
  auto table = *builder.Finish();
  std::string text = table->ToDisplayString(5);
  EXPECT_NE(text.find("(25 more rows)"), std::string::npos);
  EXPECT_NE(text.find("| name"), std::string::npos);
}

TEST(TableTest, ApproxBytesGrowsWithData) {
  TableBuilder small(TestSchema());
  (void)small.AppendRow({Value("a"), Value(static_cast<int64_t>(1))});
  TableBuilder large(TestSchema());
  for (int64_t i = 0; i < 100; ++i) {
    (void)large.AppendRow(
        {Value("some longer string value"), Value(i)});
  }
  EXPECT_LT((*small.Finish())->ApproxBytes(), (*large.Finish())->ApproxBytes());
}

// Regression: a low-cardinality string column must be charged for its
// encoded form (uint32 codes + one dictionary copy of each distinct
// string), not for the decoded per-row string payloads. With 10k rows of
// 9 distinct ~40-byte strings, the decoded accounting would be ~100x the
// encoded one.
TEST(TableTest, ApproxBytesChargesDictionaryEncoding) {
  constexpr size_t kRows = 10000;
  const std::string suffix(40, 'x');
  std::vector<Value> cells;
  cells.reserve(kRows);
  size_t decoded_payload = 0;
  for (size_t i = 0; i < kRows; ++i) {
    std::string s = "category" + std::to_string(i % 9) + suffix;
    decoded_payload += s.size();
    cells.push_back(Value(std::move(s)));
  }
  auto table =
      *Table::Create(Schema({Field{"cat", ValueType::kString}}), {cells});
  ASSERT_EQ(table->typed_column(0).encoding(), ColumnEncoding::kDict);

  size_t encoded = table->ApproxBytes();
  // Codes dominate: 4 bytes per row plus the 9-entry dictionary, far below
  // the ~500KB of decoded string payloads (let alone sizeof(Value) per row).
  EXPECT_GE(encoded, kRows * sizeof(uint32_t));
  EXPECT_LT(encoded, kRows * sizeof(uint32_t) + 16 * 1024);
  EXPECT_LT(encoded, decoded_payload / 4);

  // The generic (oracle) representation of the same data IS charged per
  // row, so it must dwarf the encoded footprint.
  auto generic = *Table::Create(Schema({Field{"cat", ValueType::kString}}),
                                {cells}, /*force_generic=*/true);
  EXPECT_GT(generic->ApproxBytes(), encoded * 10);

  // Decoding the compatibility view must not change the accounting.
  (void)table->column(0);
  EXPECT_EQ(table->ApproxBytes(), encoded);
}

}  // namespace
}  // namespace shareinsights
