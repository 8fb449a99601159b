#include "io/csv.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

namespace shareinsights {
namespace {

TEST(CsvTest, ReadsHeaderedCsv) {
  auto table = ReadCsvString("a,b\n1,x\n2,y\n", CsvOptions{}, std::nullopt);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->num_rows(), 2u);
  EXPECT_EQ((*table)->schema().names(), (std::vector<std::string>{"a", "b"}));
  // Types inferred: a is int64.
  EXPECT_EQ((*table)->at(0, 0), Value(static_cast<int64_t>(1)));
  EXPECT_EQ((*table)->at(1, 1), Value("y"));
}

TEST(CsvTest, CustomSeparator) {
  CsvOptions options;
  options.separator = '\t';
  auto table = ReadCsvString("a\tb\n1\t2\n", options, std::nullopt);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_columns(), 2u);
}

TEST(CsvTest, QuotedFieldsRfc4180) {
  auto table = ReadCsvString(
      "a,b\n\"x,y\",\"say \"\"hi\"\"\"\n\"line\nbreak\",plain\n",
      CsvOptions{}, std::nullopt);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->num_rows(), 2u);
  EXPECT_EQ((*table)->at(0, 0), Value("x,y"));
  EXPECT_EQ((*table)->at(0, 1), Value("say \"hi\""));
  EXPECT_EQ((*table)->at(1, 0), Value("line\nbreak"));
}

TEST(CsvTest, DeclaredSchemaSelectsAndReordersColumns) {
  Schema declared = Schema::FromNames({"b", "a"});
  auto table =
      ReadCsvString("a,b,c\n1,x,ignored\n", CsvOptions{}, declared);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->schema().names(),
            (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ((*table)->at(0, 0), Value("x"));
  EXPECT_EQ((*table)->at(0, 1), Value(static_cast<int64_t>(1)));
}

TEST(CsvTest, DeclaredColumnMissingFromHeaderFails) {
  Schema declared = Schema::FromNames({"nope"});
  auto table = ReadCsvString("a,b\n1,2\n", CsvOptions{}, declared);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kSchemaError);
}

TEST(CsvTest, HeaderlessRequiresSchema) {
  CsvOptions options;
  options.has_header = false;
  EXPECT_FALSE(ReadCsvString("1,2\n", options, std::nullopt).ok());
  auto table =
      ReadCsvString("1,2\n3,4\n", options, Schema::FromNames({"x", "y"}));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 2u);
}

TEST(CsvTest, EmptyCellsBecomeNull) {
  auto table = ReadCsvString("a,b\n1,\n,2\n", CsvOptions{}, std::nullopt);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->at(0, 1).is_null());
  EXPECT_TRUE((*table)->at(1, 0).is_null());
}

TEST(CsvTest, ShortRowsPadWithNulls) {
  auto table = ReadCsvString("a,b,c\n1,2\n", CsvOptions{}, std::nullopt);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->at(0, 2).is_null());
}

TEST(CsvTest, CrLfLineEndings) {
  auto table = ReadCsvString("a,b\r\n1,2\r\n", CsvOptions{}, std::nullopt);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 1u);
  EXPECT_EQ((*table)->at(0, 1), Value(static_cast<int64_t>(2)));
}

TEST(CsvTest, NoTypeInferenceWhenDisabled) {
  CsvOptions options;
  options.infer_types = false;
  auto table = ReadCsvString("a\n42\n", options, std::nullopt);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->at(0, 0), Value("42"));
}

TEST(CsvTest, WriteQuotesSpecialFields) {
  TableBuilder builder(Schema::FromNames({"a", "b"}));
  (void)builder.AppendRow({Value("x,y"), Value("with \"quote\"")});
  (void)builder.AppendRow({Value("line\nbreak"), Value("plain")});
  std::string csv = WriteCsvString(**builder.Finish());
  auto reread = ReadCsvString(csv, CsvOptions{}, std::nullopt);
  ASSERT_TRUE(reread.ok()) << csv;
  EXPECT_EQ((*reread)->at(0, 0), Value("x,y"));
  EXPECT_EQ((*reread)->at(0, 1), Value("with \"quote\""));
  EXPECT_EQ((*reread)->at(1, 0), Value("line\nbreak"));
}

TEST(CsvTest, WriteReadRoundTripPreservesValues) {
  TableBuilder builder(Schema({Field{"s", ValueType::kString},
                               Field{"n", ValueType::kInt64},
                               Field{"d", ValueType::kDouble}}));
  (void)builder.AppendRow({Value("alpha"), Value(static_cast<int64_t>(-3)),
                           Value(2.25)});
  TablePtr original = *builder.Finish();
  auto reread =
      ReadCsvString(WriteCsvString(*original), CsvOptions{}, std::nullopt);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ((*reread)->at(0, 0), original->at(0, 0));
  EXPECT_EQ((*reread)->at(0, 1), original->at(0, 1));
  EXPECT_EQ((*reread)->at(0, 2), original->at(0, 2));
}

TEST(CsvTest, FileRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() / "si_csv_test.csv").string();
  TableBuilder builder(Schema::FromNames({"a"}));
  (void)builder.AppendRow({Value("v")});
  ASSERT_TRUE(WriteCsvFile(**builder.Finish(), path).ok());
  auto table = ReadCsvFile(path, CsvOptions{}, std::nullopt);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->at(0, 0), Value("v"));
  std::filesystem::remove(path);
}

TEST(CsvTest, MissingFileErrors) {
  auto table =
      ReadCsvFile("/no/such/file.csv", CsvOptions{}, std::nullopt);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, EmptyPayloadWithDeclaredSchema) {
  auto table =
      ReadCsvString("", CsvOptions{}, Schema::FromNames({"a", "b"}));
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows(), 0u);
  EXPECT_EQ((*table)->num_columns(), 2u);
}

TEST(CsvTest, WriteReadRoundTripsSpecialCharacters) {
  const std::vector<std::string> cells = {
      "sep,arated", "say \"hi\"", "line\nbreak", "carriage\rreturn",
      "trailing\r", "\rleading", "crlf\r\ninside", "all,\"\n\r"};
  for (char sep : {',', '\t'}) {
    TableBuilder builder(Schema::FromNames({"s", "t"}));
    for (const std::string& cell : cells) {
      std::string other = cell;
      std::replace(other.begin(), other.end(), ',', '\t');
      (void)builder.AppendRow({Value(cell), Value(other)});
    }
    TablePtr original = *builder.Finish();
    CsvOptions options;
    options.separator = sep;
    auto reread =
        ReadCsvString(WriteCsvString(*original, sep), options, std::nullopt);
    ASSERT_TRUE(reread.ok()) << reread.status();
    ASSERT_EQ((*reread)->num_rows(), cells.size());
    for (size_t r = 0; r < cells.size(); ++r) {
      EXPECT_EQ((*reread)->at(r, 0), original->at(r, 0)) << r;
      EXPECT_EQ((*reread)->at(r, 1), original->at(r, 1)) << r;
    }
  }
}

TEST(CsvTest, InfersIntDoubleAndMixedColumns) {
  auto table =
      ReadCsvString("n,mixed,f\n1,2,1.5\n2,x,3\n", CsvOptions{}, std::nullopt);
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ((*table)->schema().field(0).type, ValueType::kInt64);
  EXPECT_EQ((*table)->schema().field(1).type, ValueType::kString);
  // Numeric mix of int and double promotes to double.
  EXPECT_EQ((*table)->schema().field(2).type, ValueType::kDouble);
  EXPECT_EQ((*table)->at(0, 0), Value(static_cast<int64_t>(1)));
  EXPECT_EQ((*table)->at(0, 1), Value("2"));
  EXPECT_EQ((*table)->at(1, 2), Value(3.0));
}

TEST(CsvTest, InferenceKeepsNulls) {
  // A quoted empty field keeps the row (a blank line would be skipped).
  auto table = ReadCsvString("n\n\"\"\n7\n", CsvOptions{}, std::nullopt);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->num_rows(), 2u);
  EXPECT_TRUE((*table)->at(0, 0).is_null());
  EXPECT_EQ((*table)->schema().field(0).type, ValueType::kInt64);
}

TEST(CsvTest, AllNullColumnIsStringField) {
  auto table = ReadCsvString("n\n\"\"\n", CsvOptions{}, std::nullopt);
  ASSERT_TRUE(table.ok()) << table.status();
  ASSERT_EQ((*table)->num_rows(), 1u);
  EXPECT_EQ((*table)->schema().field(0).type, ValueType::kString);
  EXPECT_TRUE((*table)->at(0, 0).is_null());
}

}  // namespace
}  // namespace shareinsights
