// Byte-identity suite for the one-pass typed CSV reader. The oracle is the
// previous row-at-a-time reader, kept only here: split the payload into
// string rows, build a string table through TableBuilder, then re-infer
// every column's type from its decoded cells. ReadCsvString must produce
// the same schema, the same per-column encoding and arrays (doubles bit
// for bit), the same interned dictionaries, the same errors and the same
// ParseReport, for any payload and options.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "io/csv.h"

namespace shareinsights {
namespace {

// ---------------------------------------------------------------------
// The legacy reader (oracle).
// ---------------------------------------------------------------------

std::vector<std::vector<std::string>> LegacySplitCsv(
    const std::string& payload, char sep) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool row_has_content = false;
  for (size_t i = 0; i < payload.size(); ++i) {
    char c = payload[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < payload.size() && payload[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      row_has_content = true;
      continue;
    }
    if (c == sep) {
      row.push_back(std::move(field));
      field.clear();
      row_has_content = true;
      continue;
    }
    if (c == '\r') continue;
    if (c == '\n') {
      if (row_has_content || !field.empty() || !row.empty()) {
        row.push_back(std::move(field));
        field.clear();
        rows.push_back(std::move(row));
        row.clear();
      }
      row_has_content = false;
      continue;
    }
    field.push_back(c);
    row_has_content = true;
  }
  if (row_has_content || !field.empty() || !row.empty()) {
    row.push_back(std::move(field));
    rows.push_back(std::move(row));
  }
  return rows;
}

Value LegacyCellToValue(const std::string& text) {
  if (text.empty()) return Value::Null();
  return Value(text);
}

Result<TablePtr> LegacyInferColumnTypes(const TablePtr& table) {
  std::vector<Field> fields;
  std::vector<std::vector<Value>> columns;
  for (size_t c = 0; c < table->num_columns(); ++c) {
    const auto& col = table->column(c);
    bool all_int = true;
    bool all_numeric = true;
    bool all_bool = true;
    bool any_value = false;
    std::vector<Value> parsed;
    parsed.reserve(col.size());
    for (const Value& v : col) {
      if (v.is_null()) {
        parsed.push_back(v);
        continue;
      }
      any_value = true;
      Value inferred = v.is_string() ? Value::Infer(v.string_value()) : v;
      switch (inferred.type()) {
        case ValueType::kInt64:
          all_bool = false;
          break;
        case ValueType::kDouble:
          all_int = false;
          all_bool = false;
          break;
        case ValueType::kBool:
          all_int = false;
          all_numeric = false;
          break;
        default:
          all_int = all_numeric = all_bool = false;
      }
      parsed.push_back(std::move(inferred));
    }
    ValueType type = ValueType::kString;
    if (any_value) {
      if (all_int) {
        type = ValueType::kInt64;
      } else if (all_numeric) {
        type = ValueType::kDouble;
        for (Value& v : parsed) {
          if (v.is_int64()) v = Value(static_cast<double>(v.int64_value()));
        }
      } else if (all_bool) {
        type = ValueType::kBool;
      } else {
        parsed = col;
      }
    }
    fields.push_back(Field{table->schema().field(c).name, type});
    columns.push_back(std::move(parsed));
  }
  return Table::Create(Schema(std::move(fields)), std::move(columns));
}

Result<TablePtr> LegacyReadCsvString(const std::string& payload,
                                     const CsvOptions& options,
                                     const std::optional<Schema>& declared,
                                     ParseReport* report) {
  std::vector<std::vector<std::string>> rows =
      LegacySplitCsv(payload, options.separator);
  Schema schema;
  size_t first_data_row = 0;
  std::vector<size_t> source_index;
  if (options.has_header) {
    if (rows.empty()) {
      if (declared.has_value()) return Table::Empty(*declared);
      return Status::ParseError("CSV payload is empty and no schema declared");
    }
    std::vector<std::string> header;
    for (const std::string& h : rows[0]) header.push_back(Trim(h));
    first_data_row = 1;
    if (declared.has_value()) {
      schema = *declared;
      source_index.resize(schema.num_fields(), SIZE_MAX);
      for (size_t c = 0; c < schema.num_fields(); ++c) {
        for (size_t h = 0; h < header.size(); ++h) {
          if (header[h] == schema.field(c).name) {
            source_index[c] = h;
            break;
          }
        }
        if (source_index[c] == SIZE_MAX) {
          return Status::SchemaError("declared column '" +
                                     schema.field(c).name +
                                     "' not present in CSV header [" +
                                     Join(header, ", ") + "]");
        }
      }
    } else {
      schema = Schema::FromNames(header);
      source_index.resize(header.size());
      for (size_t c = 0; c < header.size(); ++c) source_index[c] = c;
    }
  } else {
    if (!declared.has_value()) {
      return Status::InvalidArgument(
          "CSV without a header requires a declared schema");
    }
    schema = *declared;
    source_index.resize(schema.num_fields());
    for (size_t c = 0; c < schema.num_fields(); ++c) source_index[c] = c;
  }
  size_t expected_arity =
      options.has_header ? rows[0].size() : schema.num_fields();
  TableBuilder builder(schema);
  auto reject = [&](size_t data_row, const std::vector<std::string>& fields,
                    const std::string& reason) {
    if (options.error_policy == ParseErrorPolicy::kSkip) {
      if (report != nullptr) ++report->rows_skipped;
      return;
    }
    if (report != nullptr) {
      ++report->rows_skipped;
      report->quarantined.push_back(
          QuarantinedRow{static_cast<int64_t>(data_row), reason,
                         Join(fields, std::string(1, options.separator))});
    }
  };
  for (size_t r = first_data_row; r < rows.size(); ++r) {
    const auto& raw = rows[r];
    size_t data_row = r - first_data_row;
    if (options.error_policy != ParseErrorPolicy::kFail &&
        raw.size() != expected_arity) {
      reject(data_row, raw,
             "expected " + std::to_string(expected_arity) + " fields, got " +
                 std::to_string(raw.size()));
      continue;
    }
    std::vector<Value> row;
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      size_t src = source_index[c];
      if (src == SIZE_MAX || src >= raw.size()) {
        row.push_back(Value::Null());
      } else {
        row.push_back(LegacyCellToValue(raw[src]));
      }
    }
    Status appended = builder.AppendRow(std::move(row));
    if (!appended.ok()) return appended;
  }
  SI_ASSIGN_OR_RETURN(TablePtr table, builder.Finish());
  if (options.infer_types) return LegacyInferColumnTypes(table);
  return table;
}

// ---------------------------------------------------------------------
// Byte-level comparison.
// ---------------------------------------------------------------------

std::string Describe(const std::string& payload, const CsvOptions& options,
                     const std::optional<Schema>& declared) {
  std::string out = "payload=\"";
  for (char c : payload) {
    if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\0') {
      out += "\\0";
    } else {
      out.push_back(c);
    }
  }
  out += "\" sep=" + std::to_string(static_cast<int>(options.separator));
  out += std::string(" header=") + (options.has_header ? "1" : "0");
  out += std::string(" infer=") + (options.infer_types ? "1" : "0");
  out += " policy=" + std::to_string(static_cast<int>(options.error_policy));
  out += " declared=" + (declared ? declared->ToString() : "none");
  return out;
}

bool SameDoubleBits(const std::vector<double>& a,
                    const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

void ExpectSameTable(const Table& expected, const Table& actual,
                     const std::string& what) {
  ASSERT_EQ(expected.schema(), actual.schema()) << what;
  ASSERT_EQ(expected.num_rows(), actual.num_rows()) << what;
  ASSERT_EQ(expected.num_columns(), actual.num_columns()) << what;
  for (size_t c = 0; c < expected.num_columns(); ++c) {
    const ColumnData& e = expected.typed_column(c);
    const ColumnData& a = actual.typed_column(c);
    std::string col = what + " column " + std::to_string(c);
    ASSERT_EQ(e.encoding(), a.encoding()) << col;
    EXPECT_EQ(e.size(), a.size()) << col;
    EXPECT_EQ(e.nulls(), a.nulls()) << col;
    EXPECT_EQ(e.ints(), a.ints()) << col;
    EXPECT_TRUE(SameDoubleBits(e.doubles(), a.doubles())) << col;
    EXPECT_EQ(e.bools(), a.bools()) << col;
    EXPECT_EQ(e.codes(), a.codes()) << col;
    EXPECT_EQ(e.generic(), a.generic()) << col;
    if (e.encoding() == ColumnEncoding::kDict) {
      EXPECT_EQ(e.dict(), a.dict()) << col;
      EXPECT_EQ(e.shared_dict().get(), a.shared_dict().get())
          << col << ": dictionary not interned to the same instance";
    }
  }
}

void ExpectSameReport(const ParseReport& expected, const ParseReport& actual,
                      const std::string& what) {
  EXPECT_EQ(expected.rows_skipped, actual.rows_skipped) << what;
  ASSERT_EQ(expected.quarantined.size(), actual.quarantined.size()) << what;
  for (size_t i = 0; i < expected.quarantined.size(); ++i) {
    EXPECT_EQ(expected.quarantined[i].row, actual.quarantined[i].row) << what;
    EXPECT_EQ(expected.quarantined[i].reason, actual.quarantined[i].reason)
        << what;
    EXPECT_EQ(expected.quarantined[i].raw, actual.quarantined[i].raw) << what;
  }
}

// Runs both readers and requires identical outcomes. Returns false on a
// mismatch so the property test can stop at the first failing payload.
bool CheckSame(const std::string& payload, const CsvOptions& options,
               const std::optional<Schema>& declared) {
  std::string what = Describe(payload, options, declared);
  ParseReport expected_report;
  ParseReport actual_report;
  Result<TablePtr> expected =
      LegacyReadCsvString(payload, options, declared, &expected_report);
  Result<TablePtr> actual =
      ReadCsvString(payload, options, declared, &actual_report);
  EXPECT_EQ(expected.ok(), actual.ok()) << what;
  if (expected.ok() != actual.ok()) return false;
  if (!expected.ok()) {
    EXPECT_EQ(expected.status().code(), actual.status().code()) << what;
    EXPECT_EQ(expected.status().message(), actual.status().message()) << what;
  } else {
    ExpectSameTable(**expected, **actual, what);
  }
  ExpectSameReport(expected_report, actual_report, what);
  return !::testing::Test::HasFailure();
}

// Every policy, with and without inference.
void CheckAllModes(const std::string& payload,
                   const std::optional<Schema>& declared = std::nullopt,
                   bool has_header = true, char sep = ',') {
  for (ParseErrorPolicy policy :
       {ParseErrorPolicy::kFail, ParseErrorPolicy::kSkip,
        ParseErrorPolicy::kQuarantine}) {
    for (bool infer : {true, false}) {
      CsvOptions options;
      options.separator = sep;
      options.has_header = has_header;
      options.infer_types = infer;
      options.error_policy = policy;
      CheckSame(payload, options, declared);
    }
  }
}

Schema Names(const std::vector<std::string>& names) {
  return Schema::FromNames(names);
}

// ---------------------------------------------------------------------
// Corpus.
// ---------------------------------------------------------------------

TEST(CsvReaderEquivalenceTest, Quoting) {
  CheckAllModes("a,b\n\"x,y\",\"say \"\"hi\"\"\"\n\"line\nbreak\",plain\n");
  CheckAllModes("a,b\nab\"c,d\"e,f\n");          // quote mid-field
  CheckAllModes("a,b\n\"\",\"\"\"\"\n1,2\n");    // empty and lone quote
  CheckAllModes("a\n\"unterminated,\nstill\n");  // EOF inside quotes
  CheckAllModes("a,b\n\"1\",\" 2\"\n\"3\",4\n");  // quoted numbers
  CheckAllModes("a,b\n\"x\r\ny\",\"\r\"\n");     // '\r' inside quotes kept
  CheckAllModes("\"a\",\"b,c\"\n1,2\n");         // quoted header
}

TEST(CsvReaderEquivalenceTest, LineEndings) {
  CheckAllModes("a,b\r\n1,2\r\n3,4\r\n");
  CheckAllModes("a,b\r\n1,2\r\n3,4");              // no final newline
  CheckAllModes("a,b\n1,2\n3,4");
  CheckAllModes("a,b\n1\r2,3\rx\n");              // bare '\r' mid-field
  CheckAllModes("a,b\n1,2\r\r\r\n\r\n3,\r4\n");   // runs of '\r'
  CheckAllModes("\n\na,b\n\n1,2\n\n\n3,4\n\n");   // blank lines
  CheckAllModes("a,b\n1,2\n\r\n\r\r\n3,4\n");     // '\r'-only lines
  CheckAllModes("a,b\n1,\n,\n,2");                // trailing separators
  CheckAllModes("a,b\n1,2\n,");                   // last row is one sep
  CheckAllModes("");
  CheckAllModes("\n\r\n");
  CheckAllModes("a,b");                           // header only
  CheckAllModes("a,b\n");
}

TEST(CsvReaderEquivalenceTest, HeadersAndDeclaredSchemas) {
  CheckAllModes("  a , b\t,c \n1,2,3\n");  // header trimming
  CheckAllModes("a,a,b\n1,2,3\n");         // duplicate header names
  CheckAllModes("a,b,c\n1,x,ignored\n", Names({"b", "a"}));
  CheckAllModes("a,b\n1,2\n", Names({"a", "nope"}));  // missing column
  CheckAllModes("a,b\n1,2\n", Names({"b", "a", "extra"}));
  CheckAllModes("a,b,c,d\n1,2,3,4\n5,6,7,8\n", Names({"d", "b"}));
  CheckAllModes("", Names({"a", "b"}));
  CheckAllModes("\n\n", Names({"a", "b"}));
  // Declared types bind names only when inferring; kept when not.
  CheckAllModes("a,b\n1,2\n", Schema({Field{"b", ValueType::kDouble},
                                      Field{"a", ValueType::kBool}}));
  // Headerless: positional binding, schema required.
  CheckAllModes("1,2\n3,4\n", Names({"x", "y"}), /*has_header=*/false);
  CheckAllModes("1,2\n3,4\n", std::nullopt, /*has_header=*/false);
  CheckAllModes("", Names({"x", "y"}), /*has_header=*/false);
  CheckAllModes("1,2,3\n4\n", Names({"x", "y"}), /*has_header=*/false);
  CheckAllModes("a\tb\n1\t2\n", std::nullopt, true, '\t');
  CheckAllModes("a;b\n1;\"2;3\"\n", std::nullopt, true, ';');
}

TEST(CsvReaderEquivalenceTest, RaggedRowsUnderEveryPolicy) {
  CheckAllModes("a,b,c\n1,2\n3,4,5\n6,7,8,9\n10\n,,\n");
  CheckAllModes("a,b\n1,2,3\n\"x,y\",z,w\n4,5\n");
  CheckAllModes("a,b,c\n1,2\n", Names({"c", "a"}));
  CheckAllModes("1,2\n3\n4,5,6\n", Names({"x", "y"}), false);
  CheckAllModes("a,b\n\"q\"\"x\",\"line\nbreak\",extra\n1,2\n");
}

TEST(CsvReaderEquivalenceTest, NumericEdgeCases) {
  const char* cells[] = {
      " 5", "5 ", "+3", "-0", "007", "-007", "9223372036854775807",
      "-9223372036854775808", "9223372036854775808",
      "-9223372036854775809", "123456789012345678", "1234567890123456789",
      "-123456789012345678", "1e400", "-1e400", "1e-400", "nan", "NaN",
      "-nan", "inf", "-inf", "Infinity", "0x1p3", "0x10", ".5", "5.", "-.5",
      "-", "+", ".", "e5", "1e5", "1E5", "0.1", "-0.0", "1,5", "\t7",
      "\n8", "0", "00", "1.5e+10", "nan(123)", "  ", "x"};
  for (const char* cell : cells) {
    std::string text = cell;
    std::string quoted = "\"" + text + "\"";
    // Alone, with ints, with doubles, with strings.
    CheckAllModes("a\n" + quoted + "\n");
    CheckAllModes("a,b\n" + quoted + ",1\n2,2\n");
    CheckAllModes("a,b\n1.5,x\n" + quoted + ",y\n");
    CheckAllModes("a\n" + quoted + "\nword\n");
    CheckAllModes("a\n\"\"\n" + quoted + "\n3\n");
  }
}

TEST(CsvReaderEquivalenceTest, BoolSpellingsAndMixes) {
  CheckAllModes("b\ntrue\nfalse\nTRUE\nFALSE\nTrue\nFalse\n");
  CheckAllModes("b\ntrue\n\nfalse\n\"\"\n");
  CheckAllModes("b\ntrue\ntRUE\n");       // not a bool spelling
  CheckAllModes("b\ntrue\n1\n");          // int + bool -> strings
  CheckAllModes("b\n1.5\nfalse\n");       // double + bool -> strings
  CheckAllModes("n\n1\n2.5\n3\n");        // int + double -> double
  CheckAllModes("n\n1\n2.5\n3\nx\n");     // then text -> strings
  CheckAllModes("n\n9007199254740993\n0.5\n");  // int64 widened to double
}

TEST(CsvReaderEquivalenceTest, NullsAndOddBytes) {
  CheckAllModes("a,b\n,\n,\n");            // all-null columns
  CheckAllModes("a,b,c\n,1,\n,2,\n");
  CheckAllModes("a,b\n\"\",\"\"\n");
  std::string with_nul = std::string("a,b\n5") + '\0' + "x,1\n" + '\0' +
                         ",2\n7,3\n";
  CheckAllModes(with_nul);  // "5\0x" infers as 5, like strtoll on c_str()
  std::string nul_bool = std::string("a\ntrue") + '\0' + "\nfalse\n";
  CheckAllModes(nul_bool);
  CheckAllModes("a\n\xff\xfe\n\x80\n");  // high bytes sort unsigned
  CheckAllModes("a\nb\nB\na\nA\n\xc3\xa9\n");
}

// ---------------------------------------------------------------------
// Seeded random payloads.
// ---------------------------------------------------------------------

std::string RandomCell(std::mt19937_64* rng) {
  static const std::vector<std::string> pool = {
      "", "0", "1", "-1", "42", "007", "+3", " 5", "5 ", "1.5", "-0.0",
      ".5", "5.", "1e400", "nan", "inf", "0x1p3", "true", "false", "TRUE",
      "False", "9223372036854775807", "9223372036854775808", "x", "alpha",
      "a b", "p0001", "r01", "-", "e"};
  std::uniform_int_distribution<int> pick(0, 9);
  int kind = pick(*rng);
  if (kind < 6) {
    return pool[std::uniform_int_distribution<size_t>(0, pool.size() - 1)(
        *rng)];
  }
  if (kind < 8) {
    return std::to_string(
        std::uniform_int_distribution<int64_t>(-100000, 100000)(*rng));
  }
  // Raw noise from an alphabet heavy in the tokenizer's special bytes.
  static const char alphabet[] = {'a', '1', '-', '.', ',', ';', '"', '\n',
                                  '\r', ' ', 'e', '\t', '\0', 't'};
  std::string text;
  int len = std::uniform_int_distribution<int>(0, 6)(*rng);
  for (int i = 0; i < len; ++i) {
    text.push_back(alphabet[std::uniform_int_distribution<size_t>(
        0, sizeof(alphabet) - 1)(*rng)]);
  }
  return text;
}

std::string MaybeQuote(const std::string& cell, std::mt19937_64* rng) {
  if (std::uniform_int_distribution<int>(0, 3)(*rng) != 0) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

TEST(CsvReaderEquivalenceTest, SeededRandomPayloads) {
  std::mt19937_64 rng(20151031);
  const char seps[] = {',', ',', '\t', ';'};
  constexpr int kPayloads = 12000;
  for (int iter = 0; iter < kPayloads; ++iter) {
    CsvOptions options;
    options.separator = seps[std::uniform_int_distribution<int>(0, 3)(rng)];
    options.has_header = std::uniform_int_distribution<int>(0, 4)(rng) != 0;
    options.infer_types = std::uniform_int_distribution<int>(0, 3)(rng) != 0;
    options.error_policy = static_cast<ParseErrorPolicy>(
        std::uniform_int_distribution<int>(0, 2)(rng));
    const int width = std::uniform_int_distribution<int>(1, 4)(rng);
    std::vector<std::string> names;
    for (int c = 0; c < width; ++c) names.push_back("c" + std::to_string(c));

    std::string payload;
    const std::string eol =
        std::uniform_int_distribution<int>(0, 2)(rng) == 0 ? "\r\n" : "\n";
    if (options.has_header) {
      for (int c = 0; c < width; ++c) {
        if (c > 0) payload.push_back(options.separator);
        payload += names[c];
      }
      payload += eol;
    }
    const int rows = std::uniform_int_distribution<int>(0, 8)(rng);
    for (int r = 0; r < rows; ++r) {
      // Mostly well-formed rows; sometimes short, long or blank.
      int fields = width;
      int shape = std::uniform_int_distribution<int>(0, 9)(rng);
      if (shape == 0) fields = std::max(1, width - 1);
      if (shape == 1) fields = width + 1;
      if (shape == 2) fields = 0;
      for (int f = 0; f < fields; ++f) {
        if (f > 0) payload.push_back(options.separator);
        payload += MaybeQuote(RandomCell(&rng), &rng);
      }
      if (r + 1 < rows || std::uniform_int_distribution<int>(0, 1)(rng)) {
        payload += eol;
      }
    }

    std::optional<Schema> declared;
    int schema_kind = std::uniform_int_distribution<int>(0, 3)(rng);
    if (!options.has_header || schema_kind == 0) {
      std::vector<std::string> chosen = names;
      std::shuffle(chosen.begin(), chosen.end(), rng);
      chosen.resize(std::uniform_int_distribution<size_t>(1, width)(rng));
      if (schema_kind == 1) chosen.push_back("missing");
      declared = Names(chosen);
    }
    if (!CheckSame(payload, options, declared)) {
      FAIL() << "first mismatch at payload #" << iter;
    }
  }
}

}  // namespace
}  // namespace shareinsights
