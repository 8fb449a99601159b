#include "io/csv.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"
#include "table/dict_interner.h"

namespace shareinsights {

namespace {

// Character classes of the tokenizer, in the legacy precedence: a quote
// always opens quoting, then the separator, then a bare '\r' (dropped),
// then '\n' (ends the row).
enum CharClass : uint8_t { kPlain, kQuote, kSep, kCr, kLf };

// A tokenized payload. Every field is a view: into the payload for plain
// fields, into `scratch` for fields that had quotes or a bare '\r' and so
// needed unescaping. Row r spans fields[row_begin[r], row_begin[r + 1]).
struct Tokens {
  std::vector<std::string_view> fields;
  std::vector<size_t> row_begin{0};
  // Unescaped field text. Allocated once, large enough for the rest of the
  // payload (unescaping never grows text), so views into it stay valid.
  std::unique_ptr<char[]> scratch;
  size_t scratch_used = 0;

  size_t num_rows() const { return row_begin.size() - 1; }
  size_t row_size(size_t r) const { return row_begin[r + 1] - row_begin[r]; }
};

// Splits a payload into rows of fields, honouring RFC 4180 quoting: a
// quote anywhere outside quotes opens quoting, "" inside quotes is a
// literal quote, separators and newlines inside quotes are literal, a bare
// '\r' is dropped, blank lines are skipped, and a last row without a
// newline still counts.
void Tokenize(const std::string& payload, char sep, Tokens* out) {
  CharClass cls[256];
  std::fill(std::begin(cls), std::end(cls), kPlain);
  cls[static_cast<unsigned char>('\n')] = kLf;
  cls[static_cast<unsigned char>('\r')] = kCr;
  cls[static_cast<unsigned char>(sep)] = kSep;
  cls[static_cast<unsigned char>('"')] = kQuote;
  const char* p = payload.data();
  const size_t n = payload.size();
  auto at = [&](size_t i) { return cls[static_cast<unsigned char>(p[i])]; };

  // Size the field list from the line count and the first line's width
  // (never more fields than payload bytes + 1).
  size_t lines = static_cast<size_t>(std::count(p, p + n, '\n')) + 1;
  size_t first_line = std::find(p, p + n, '\n') - p;
  size_t width = static_cast<size_t>(std::count(p, p + first_line, sep)) + 1;
  out->fields.reserve(std::min(lines * width, n + 1));
  out->row_begin.reserve(lines + 1);

  bool row_has_content = false;
  size_t i = 0;
  for (;;) {
    // A plain field is a view into the payload.
    size_t start = i;
    while (i < n && at(i) == kPlain) ++i;
    if (i > start) row_has_content = true;
    std::string_view field(p + start, i - start);
    if (i < n && at(i) == kCr) {
      // '\r's that end the field are dropped without copying.
      size_t j = i;
      while (j < n && at(j) == kCr) ++j;
      if (j == n || at(j) == kSep || at(j) == kLf) i = j;
    }
    if (i < n && (at(i) == kQuote || at(i) == kCr)) {
      if (out->scratch == nullptr) {
        out->scratch = std::unique_ptr<char[]>(new char[n - start]);
      }
      char* text = out->scratch.get() + out->scratch_used;
      size_t len = field.size();
      std::memcpy(text, field.data(), len);
      bool in_quotes = false;
      for (; i < n; ++i) {
        char c = p[i];
        if (in_quotes) {
          if (c != '"') {
            text[len++] = c;
          } else if (i + 1 < n && p[i + 1] == '"') {
            text[len++] = '"';
            ++i;
          } else {
            in_quotes = false;
          }
          continue;
        }
        CharClass k = at(i);
        if (k == kSep || k == kLf) break;
        if (k == kCr) continue;
        if (k == kQuote) {
          in_quotes = true;
        } else {
          text[len++] = c;
        }
        row_has_content = true;
      }
      out->scratch_used += len;
      field = std::string_view(text, len);
    }
    // The field ends at a separator, a newline, or the end of the payload;
    // the last two end the row unless it is blank.
    if (i < n && at(i) == kSep) {
      out->fields.push_back(field);
      row_has_content = true;
    } else if (row_has_content) {
      out->fields.push_back(field);
      out->row_begin.push_back(out->fields.size());
      row_has_content = false;
    }
    if (i == n) break;
    ++i;
  }
}

// Parses a non-empty `text` of the form -?[0-9]{1,18}: always in int64
// range, and exactly what strtoll returns for such text.
bool ParseShortInt(std::string_view text, int64_t* out) {
  size_t i = text[0] == '-' ? 1 : 0;
  size_t digits = text.size() - i;
  if (digits == 0 || digits > 18) return false;
  int64_t v = 0;
  for (; i < text.size(); ++i) {
    unsigned d = static_cast<unsigned char>(text[i]) - '0';
    if (d > 9) return false;
    v = v * 10 + d;
  }
  *out = text[0] == '-' ? -v : v;
  return true;
}

// The cells of one output column across the kept rows: a field view, or
// an empty view (a null) when the row has no field at `src`.
struct ColumnCells {
  const Tokens& tokens;
  const std::vector<size_t>& kept_rows;
  size_t src;  // payload column, SIZE_MAX = always null

  size_t size() const { return kept_rows.size(); }
  std::string_view operator[](size_t k) const {
    size_t r = kept_rows[k];
    if (src >= tokens.row_size(r)) return {};
    return tokens.fields[tokens.row_begin[r] + src];
  }
};

struct TypedColumn {
  ValueType type;
  ColumnData data;
};

// Dictionary-encodes the column's text: the sorted distinct strings,
// interned, with a code per non-null row. A column without any value
// gets the all-null int64 layout Encode gives it.
TypedColumn EncodeText(const ColumnCells& cells) {
  const size_t n = cells.size();
  ColumnData::Arrays arrays;
  arrays.nulls.assign(n, 0);
  arrays.codes.assign(n, 0);
  bool any_null = false;
  // Codes in first-seen order over views into the payload; renumbered
  // into sorted order below.
  std::unordered_map<std::string_view, uint32_t> seen;
  std::vector<std::string_view> distinct;
  for (size_t r = 0; r < n; ++r) {
    std::string_view text = cells[r];
    if (text.empty()) {
      arrays.nulls[r] = 1;
      any_null = true;
      continue;
    }
    auto [it, inserted] =
        seen.try_emplace(text, static_cast<uint32_t>(distinct.size()));
    if (inserted) distinct.push_back(text);
    arrays.codes[r] = it->second;
  }
  if (distinct.empty()) {
    arrays.codes = {};
    arrays.ints.assign(n, 0);
    if (n == 0) arrays.nulls = {};
    return {ValueType::kString,
            ColumnData::FromArrays(ColumnEncoding::kInt64, n,
                                   std::move(arrays))};
  }
  std::vector<uint32_t> order(distinct.size());
  for (uint32_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return distinct[a] < distinct[b];
  });
  std::vector<uint32_t> remap(distinct.size());
  ColumnData::Dictionary dict;
  dict.reserve(distinct.size());
  for (uint32_t k = 0; k < order.size(); ++k) {
    remap[order[k]] = k;
    dict.emplace_back(distinct[order[k]]);
  }
  for (size_t r = 0; r < n; ++r) {
    if (arrays.nulls[r] == 0) arrays.codes[r] = remap[arrays.codes[r]];
  }
  // Free the unused null map outright: the table may stay cached.
  if (!any_null) arrays.nulls = {};
  arrays.dict = DictionaryInterner::Process().Intern(std::move(dict));
  return {ValueType::kString,
          ColumnData::FromArrays(ColumnEncoding::kDict, n, std::move(arrays))};
}

// Infers the column's type with Value::Infer's rule per cell: all int64
// -> int64, int64 and double -> double, all bool -> bool, and any other
// mix keeps the original text. Stops inferring at the first cell that
// makes the column text.
TypedColumn InferColumn(const ColumnCells& cells) {
  const size_t n = cells.size();
  ColumnData::Arrays arrays;
  arrays.nulls.assign(n, 0);
  bool any_null = false;
  ValueType type = ValueType::kNull;  // no value seen yet
  std::string cell;  // NUL-terminated copy for strtoll/strtod
  for (size_t r = 0; r < n; ++r) {
    std::string_view text = cells[r];
    if (text.empty()) {
      arrays.nulls[r] = 1;
      any_null = true;
      continue;
    }
    Value v;
    int64_t small = 0;
    if (ParseShortInt(text, &small)) {
      v = Value(small);
    } else {
      cell.assign(text);
      v = Value::Infer(cell);
    }
    if (type == ValueType::kNull) {
      type = v.type();
      if (type == ValueType::kInt64) arrays.ints.assign(n, 0);
      if (type == ValueType::kDouble) arrays.doubles.assign(n, 0.0);
      if (type == ValueType::kBool) arrays.bools.assign(n, 0);
    } else if (type == ValueType::kInt64 && v.is_double()) {
      // Widen the int64 cells read so far, as the int+double rule says.
      type = ValueType::kDouble;
      arrays.doubles.assign(n, 0.0);
      for (size_t k = 0; k < r; ++k) {
        arrays.doubles[k] = static_cast<double>(arrays.ints[k]);
      }
      arrays.ints = {};
    }
    if (type == ValueType::kInt64 && v.is_int64()) {
      arrays.ints[r] = v.int64_value();
    } else if (type == ValueType::kDouble && v.is_double()) {
      arrays.doubles[r] = v.double_value();
    } else if (type == ValueType::kDouble && v.is_int64()) {
      arrays.doubles[r] = static_cast<double>(v.int64_value());
    } else if (type == ValueType::kBool && v.is_bool()) {
      arrays.bools[r] = v.bool_value() ? 1 : 0;
    } else {
      return EncodeText(cells);
    }
  }
  if (type == ValueType::kNull) return EncodeText(cells);
  if (!any_null) arrays.nulls = {};
  ColumnEncoding encoding = ColumnEncoding::kBool;
  if (type == ValueType::kInt64) encoding = ColumnEncoding::kInt64;
  if (type == ValueType::kDouble) encoding = ColumnEncoding::kDouble;
  return {type, ColumnData::FromArrays(encoding, n, std::move(arrays))};
}

std::string JoinFields(const Tokens& tokens, size_t row, char sep) {
  std::string out;
  for (size_t f = 0; f < tokens.row_size(row); ++f) {
    if (f > 0) out.push_back(sep);
    out.append(tokens.fields[tokens.row_begin[row] + f]);
  }
  return out;
}

}  // namespace

Result<TablePtr> ReadCsvString(const std::string& payload,
                               const CsvOptions& options,
                               const std::optional<Schema>& declared,
                               ParseReport* report) {
  Tokens tokens;
  Tokenize(payload, options.separator, &tokens);

  Schema schema;
  size_t first_data_row = 0;
  // Maps output column -> payload column (SIZE_MAX = always null).
  std::vector<size_t> source_index;

  if (options.has_header) {
    if (tokens.num_rows() == 0) {
      if (declared.has_value()) return Table::Empty(*declared);
      return Status::ParseError("CSV payload is empty and no schema declared");
    }
    std::vector<std::string> header;
    header.reserve(tokens.row_size(0));
    for (size_t f = 0; f < tokens.row_size(0); ++f) {
      header.push_back(Trim(tokens.fields[f]));
    }
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

  // Arity a well-formed data row must have under the skip/quarantine
  // policies: the header's width, or the declared schema's when headerless.
  // Under kFail short rows are null-padded and extra fields dropped.
  size_t expected_arity =
      options.has_header ? tokens.row_size(0) : schema.num_fields();
  std::vector<size_t> kept_rows;
  kept_rows.reserve(tokens.num_rows() - first_data_row);
  for (size_t r = first_data_row; r < tokens.num_rows(); ++r) {
    size_t arity = tokens.row_size(r);
    if (options.error_policy == ParseErrorPolicy::kFail ||
        arity == expected_arity) {
      kept_rows.push_back(r);
      continue;
    }
    if (report == nullptr) continue;
    ++report->rows_skipped;
    if (options.error_policy == ParseErrorPolicy::kQuarantine) {
      report->quarantined.push_back(QuarantinedRow{
          static_cast<int64_t>(r - first_data_row),
          "expected " + std::to_string(expected_arity) + " fields, got " +
              std::to_string(arity),
          JoinFields(tokens, r, options.separator)});
    }
  }

  // Each column is typed in one pass over its cells. D-section schemas
  // bind names only: with inference on, the types come from the data.
  std::vector<Field> fields;
  std::vector<ColumnData> columns;
  fields.reserve(schema.num_fields());
  columns.reserve(schema.num_fields());
  for (size_t c = 0; c < schema.num_fields(); ++c) {
    ColumnCells cells{tokens, kept_rows, source_index[c]};
    TypedColumn typed =
        options.infer_types ? InferColumn(cells) : EncodeText(cells);
    fields.push_back(Field{schema.field(c).name,
                           options.infer_types ? typed.type
                                               : schema.field(c).type});
    columns.push_back(std::move(typed.data));
  }
  return Table::FromColumnData(Schema(std::move(fields)), std::move(columns));
}

Result<TablePtr> ReadCsvFile(const std::string& path,
                             const CsvOptions& options,
                             const std::optional<Schema>& declared) {
  SI_ASSIGN_OR_RETURN(std::string payload, ReadFileToString(path));
  Result<TablePtr> table = ReadCsvString(payload, options, declared);
  if (!table.ok()) return table.status().WithContext("reading " + path);
  return table;
}

std::string WriteCsvString(const Table& table, char separator) {
  std::ostringstream out;
  auto write_field = [&](const std::string& text) {
    bool needs_quote = text.find(separator) != std::string::npos ||
                       text.find('"') != std::string::npos ||
                       text.find('\n') != std::string::npos ||
                       text.find('\r') != std::string::npos;
    if (!needs_quote) {
      out << text;
      return;
    }
    out << '"';
    for (char c : text) {
      if (c == '"') out << '"';
      out << c;
    }
    out << '"';
  };
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out << separator;
    write_field(table.schema().field(c).name);
  }
  out << '\n';
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << separator;
      write_field(table.typed_column(c).GetValue(r).ToString());
    }
    out << '\n';
  }
  return out.str();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char separator) {
  return WriteStringToFile(WriteCsvString(table, separator), path);
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec)) {
    return Status::IoError("'" + path + "' is a directory, not a file");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "' for reading");
  // A regular file is read in one call sized by its length. The length is
  // only a hint: whatever follows it (a file that grew, a pseudo-file that
  // reports 0 bytes) and all of a non-regular file such as a pipe are
  // streamed after it.
  std::string text;
  uintmax_t size = 0;
  if (std::filesystem::is_regular_file(path, ec)) {
    size = std::filesystem::file_size(path, ec);
    if (ec) size = 0;
  }
  if (size > 0) {
    text.resize(static_cast<size_t>(size));
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<size_t>(in.gcount()));
  }
  char chunk[1 << 16];
  while (in.good() &&
         (in.read(chunk, sizeof(chunk)) || in.gcount() > 0)) {
    text.append(chunk, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IoError("read of '" + path + "' failed");
  return text;
}

Status WriteStringToFile(const std::string& text, const std::string& path) {
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for writing");
  out << text;
  if (!out.good()) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

}  // namespace shareinsights
