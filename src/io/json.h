#ifndef SHAREINSIGHTS_IO_JSON_H_
#define SHAREINSIGHTS_IO_JSON_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"

namespace shareinsights {

/// A parsed JSON document node. Used both for ingesting JSON payloads
/// (with `=>` JSON-path column mapping, figure 6/18 of the paper) and for
/// rendering REST API responses.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);
  static JsonValue MakeArray();
  static JsonValue MakeObject();

  /// Converts a scalar engine Value into its JSON equivalent.
  static JsonValue FromValue(const Value& v);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }

  std::vector<JsonValue>& array_items() { return array_; }
  const std::vector<JsonValue>& array_items() const { return array_; }

  /// Object member access; Set preserves insertion order for stable
  /// serialization.
  void Set(const std::string& key, JsonValue value);
  const JsonValue* Find(const std::string& key) const;
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return object_;
  }

  void Append(JsonValue value) { array_.push_back(std::move(value)); }

  /// Resolves a dot-separated path like "user.location" or "items.0.id".
  /// Returns nullptr when any step is missing.
  const JsonValue* ResolvePath(const std::string& path) const;
  JsonValue* ResolvePath(const std::string& path);

  /// Scalar engine Value view of this node: null/bool/number/string map
  /// directly; arrays and objects serialize to their JSON text.
  Value ToTableValue() const;

  /// Compact JSON serialization.
  std::string Serialize() const;
  /// Pretty-printed serialization with 2-space indentation.
  std::string SerializePretty() const;

 private:
  void SerializeTo(std::string* out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Parses a JSON document. Accepts the full JSON grammar; numbers are
/// doubles. Errors carry a byte offset for diagnostics.
Result<JsonValue> ParseJson(const std::string& text);

/// Parses a payload that is either a JSON array of objects or
/// newline-delimited JSON objects; returns one JsonValue per record.
Result<std::vector<JsonValue>> ParseJsonRecords(const std::string& text);

}  // namespace shareinsights

#endif  // SHAREINSIGHTS_IO_JSON_H_
