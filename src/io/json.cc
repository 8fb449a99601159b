#include "io/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/string_util.h"

namespace shareinsights {

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}

JsonValue JsonValue::MakeArray() {
  JsonValue j;
  j.kind_ = Kind::kArray;
  return j;
}

JsonValue JsonValue::MakeObject() {
  JsonValue j;
  j.kind_ = Kind::kObject;
  return j;
}

JsonValue JsonValue::FromValue(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return JsonValue();
    case ValueType::kBool:
      return MakeBool(v.bool_value());
    case ValueType::kInt64:
      return MakeNumber(static_cast<double>(v.int64_value()));
    case ValueType::kDouble:
      return MakeNumber(v.double_value());
    case ValueType::kString:
      return MakeString(v.string_value());
  }
  return JsonValue();
}

void JsonValue::Set(const std::string& key, JsonValue value) {
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(key, std::move(value));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const JsonValue* JsonValue::ResolvePath(const std::string& path) const {
  const JsonValue* node = this;
  for (const std::string& step : Split(path, '.')) {
    if (node == nullptr) return nullptr;
    if (node->is_object()) {
      node = node->Find(step);
    } else if (node->is_array()) {
      if (step.empty() ||
          !std::isdigit(static_cast<unsigned char>(step[0]))) {
        return nullptr;
      }
      size_t idx = static_cast<size_t>(std::stoull(step));
      if (idx >= node->array_.size()) return nullptr;
      node = &node->array_[idx];
    } else {
      return nullptr;
    }
  }
  return node;
}

JsonValue* JsonValue::ResolvePath(const std::string& path) {
  return const_cast<JsonValue*>(std::as_const(*this).ResolvePath(path));
}

Value JsonValue::ToTableValue() const {
  switch (kind_) {
    case Kind::kNull:
      return Value::Null();
    case Kind::kBool:
      return Value(bool_);
    case Kind::kNumber:
      if (number_ == std::floor(number_) && std::abs(number_) < 9.0e15) {
        return Value(static_cast<int64_t>(number_));
      }
      return Value(number_);
    case Kind::kString:
      return Value(string_);
    case Kind::kArray:
    case Kind::kObject:
      return Value(Serialize());
  }
  return Value::Null();
}

void JsonValue::SerializeTo(std::string* out, int indent, int depth) const {
  auto newline = [&] {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * depth), ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      return;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Kind::kNumber: {
      if (number_ == std::floor(number_) && std::abs(number_) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number_));
        *out += buf;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.12g", number_);
        *out += buf;
      }
      return;
    }
    case Kind::kString:
      out->push_back('"');
      *out += JsonEscape(string_);
      out->push_back('"');
      return;
    case Kind::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        ++depth;
        newline();
        --depth;
        // Children indent one level deeper.
        array_[i].SerializeTo(out, indent, depth + 1);
      }
      if (!array_.empty()) newline();
      out->push_back(']');
      return;
    }
    case Kind::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out->push_back(',');
        ++depth;
        newline();
        --depth;
        out->push_back('"');
        *out += JsonEscape(object_[i].first);
        *out += indent > 0 ? "\": " : "\":";
        object_[i].second.SerializeTo(out, indent, depth + 1);
      }
      if (!object_.empty()) newline();
      out->push_back('}');
      return;
    }
  }
}

std::string JsonValue::Serialize() const {
  std::string out;
  SerializeTo(&out, 0, 0);
  return out;
}

std::string JsonValue::SerializePretty() const {
  std::string out;
  SerializeTo(&out, 2, 0);
  return out;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    SI_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return value;
  }

  Result<JsonValue> ParseOne() {
    SkipWhitespace();
    return ParseValue();
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWhitespace();
    return pos_ >= text_.size();
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError("JSON error at byte " + std::to_string(pos_) +
                              ": " + what);
  }

  Result<JsonValue> ParseValue() {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        if (text_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          return JsonValue::MakeBool(true);
        }
        return Error("invalid literal");
      case 'f':
        if (text_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          return JsonValue::MakeBool(false);
        }
        return Error("invalid literal");
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          return JsonValue();
        }
        return Error("invalid literal");
      default:
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
          return ParseNumber();
        }
        return Error(std::string("unexpected character '") + c + "'");
    }
  }

  Result<JsonValue> ParseObject() {
    ++pos_;  // consume '{'
    JsonValue obj = JsonValue::MakeObject();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      SI_ASSIGN_OR_RETURN(JsonValue key, ParseString());
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SkipWhitespace();
      SI_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      obj.Set(key.string_value(), std::move(value));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return obj;
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray() {
    ++pos_;  // consume '['
    JsonValue arr = JsonValue::MakeArray();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      SkipWhitespace();
      SI_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      arr.Append(std::move(value));
      SkipWhitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return arr;
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseString() {
    ++pos_;  // consume '"'
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_];
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return Error("bad escape");
        char esc = text_[pos_];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 >= text_.size()) return Error("bad \\u escape");
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              char h = text_[pos_ + i];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code += static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code += static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code += static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("bad hex digit in \\u escape");
              }
            }
            pos_ += 4;
            // UTF-8 encode (BMP only; surrogate pairs folded to '?').
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else if (code >= 0xD800 && code <= 0xDFFF) {
              out.push_back('?');
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
        ++pos_;
      } else {
        out.push_back(c);
        ++pos_;
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return JsonValue::MakeString(std::move(out));
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::string text = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0') {
      return Error("invalid number '" + text + "'");
    }
    return JsonValue::MakeNumber(v);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  JsonParser parser(text);
  return parser.Parse();
}

Result<std::vector<JsonValue>> ParseJsonRecords(const std::string& text) {
  // A payload starting with '[' is a single JSON array of records.
  size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return std::vector<JsonValue>{};
  if (text[first] == '[') {
    SI_ASSIGN_OR_RETURN(JsonValue doc, ParseJson(text));
    return std::move(doc.array_items());
  }
  // Otherwise: newline-delimited JSON. Parse documents back to back.
  std::vector<JsonValue> records;
  JsonParser parser(text);
  while (!parser.AtEnd()) {
    SI_ASSIGN_OR_RETURN(JsonValue record, parser.ParseOne());
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace shareinsights
