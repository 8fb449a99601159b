#ifndef SHAREINSIGHTS_IO_CSV_H_
#define SHAREINSIGHTS_IO_CSV_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "io/error_policy.h"
#include "table/table.h"

namespace shareinsights {

/// Options for CSV/TSV ingestion, mirroring the D-section knobs
/// (`separator: ','`, declared schema, `error_policy:`).
struct CsvOptions {
  char separator = ',';
  /// When true the first row is a header naming columns; a declared
  /// schema, if also present, must match by name (order may differ).
  bool has_header = true;
  /// Infer int64/double/bool column types while reading (on by default;
  /// the engine's tasks want typed numeric columns). Off, every column is
  /// text and keeps the declared field types.
  bool infer_types = true;
  /// What to do with malformed rows. Under kFail (the default) parsing
  /// keeps its legacy lenient shape: short rows are null-padded and
  /// extra fields dropped. Under kSkip/kQuarantine a data row whose
  /// field count differs from the expected arity is dropped (and, for
  /// kQuarantine, reported) instead of being silently coerced.
  ParseErrorPolicy error_policy = ParseErrorPolicy::kFail;
};

/// Parses a CSV payload. Quoting follows RFC 4180: fields may be wrapped
/// in double quotes, with "" as an embedded quote; separators and newlines
/// inside quotes are literal.
///
/// When `declared` is provided it fixes the output schema: with a header,
/// columns are matched by name (extra payload columns dropped); without a
/// header, columns bind positionally and the payload arity must match.
///
/// `report`, when non-null, collects rows rejected under the skip/
/// quarantine error policies (the `raw` field is reassembled from the
/// parsed fields).
///
/// The parse is one pass: fields are views into the payload (only quoted
/// fields are unescaped into a scratch buffer), and each column is typed
/// straight into ColumnData arrays. Empty fields are nulls; the other
/// cells follow Value::Infer, and a column is int64 when every cell is,
/// double when cells mix int64 and double, bool when every cell is, and
/// otherwise keeps the original text (see docs/ARCHITECTURE.md,
/// "Ingestion").
Result<TablePtr> ReadCsvString(const std::string& payload,
                               const CsvOptions& options,
                               const std::optional<Schema>& declared,
                               ParseReport* report = nullptr);

/// Reads and parses a CSV file from disk.
Result<TablePtr> ReadCsvFile(const std::string& path,
                             const CsvOptions& options,
                             const std::optional<Schema>& declared);

/// Serializes a table to CSV with a header row, quoting fields that
/// contain the separator, quotes, '\n' or '\r' (the reader drops a bare
/// '\r', so an unquoted one would not survive a round trip).
std::string WriteCsvString(const Table& table, char separator = ',');

/// Writes WriteCsvString output to a file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char separator = ',');

/// Reads an entire file into a string.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes a string to a file, creating parent directories if needed.
Status WriteStringToFile(const std::string& text, const std::string& path);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_IO_CSV_H_
