#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/require.hpp"

namespace fne {

/// Recursive-descent reader over the whole input; positions reported in
/// byte offsets.  Depth is capped so a pathological file cannot blow the
/// stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  [[nodiscard]] JsonValue parse_document() {
    JsonValue v = parse_value(0);
    skip_ws();
    FNE_REQUIRE(pos_ == text_.size(), err("trailing characters after the JSON document"));
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[nodiscard]] std::string err(const std::string& what) const {
    return "json: " + what + " (at byte " + std::to_string(pos_) + ")";
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] char peek() {
    skip_ws();
    FNE_REQUIRE(pos_ < text_.size(), err("unexpected end of input"));
    return text_[pos_];
  }

  void expect(char c) {
    FNE_REQUIRE(peek() == c, err(std::string("expected '") + c + "', got '" + text_[pos_] + "'"));
    ++pos_;
  }

  [[nodiscard]] bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  [[nodiscard]] JsonValue parse_value(int depth) {
    FNE_REQUIRE(depth < kMaxDepth, err("nesting deeper than 64 levels"));
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{': {
        v.kind_ = JsonValue::Kind::kObject;
        ++pos_;
        if (peek() == '}') {
          ++pos_;
          return v;
        }
        while (true) {
          FNE_REQUIRE(peek() == '"', err("object keys must be strings"));
          std::string key = parse_string_body();
          expect(':');
          JsonValue member = parse_value(depth + 1);
          for (const auto& [k, unused] : v.members_) {
            FNE_REQUIRE(k != key, err("duplicate object key '" + key + "'"));
          }
          v.members_.emplace_back(std::move(key), std::move(member));
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          return v;
        }
      }
      case '[': {
        v.kind_ = JsonValue::Kind::kArray;
        ++pos_;
        if (peek() == ']') {
          ++pos_;
          return v;
        }
        while (true) {
          v.items_.push_back(parse_value(depth + 1));
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          return v;
        }
      }
      case '"':
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string_body();
        return v;
      case 't':
        FNE_REQUIRE(consume_literal("true"), err("bad literal"));
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        FNE_REQUIRE(consume_literal("false"), err("bad literal"));
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        FNE_REQUIRE(consume_literal("null"), err("bad literal"));
        return v;  // null
      default:
        return parse_number();
    }
  }

  [[nodiscard]] std::string parse_string_body() {
    expect('"');
    std::string out;
    while (true) {
      FNE_REQUIRE(pos_ < text_.size(), err("unterminated string"));
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      FNE_REQUIRE(pos_ < text_.size(), err("unterminated escape"));
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          FNE_REQUIRE(pos_ + 4 <= text_.size(), err("truncated \\u escape"));
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              FNE_REQUIRE(false, err("bad \\u escape digit"));
            }
          }
          // BMP only (no surrogate pairs) — plenty for config files.
          FNE_REQUIRE(code < 0xD800 || code > 0xDFFF, err("surrogate \\u escapes unsupported"));
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          FNE_REQUIRE(false, err(std::string("bad escape '\\") + e + "'"));
      }
    }
  }

  [[nodiscard]] JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
    }
    FNE_REQUIRE(pos_ > start, err("expected a value"));
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    FNE_REQUIRE(end != nullptr && *end == '\0' && end != token.c_str(),
                "json: bad number '" + token + "' (at byte " + std::to_string(start) + ")");
    // 1e999 overflows to inf, which the writer would emit as the invalid
    // JSON token `inf`; reject it here so no such value gets past a parse.
    FNE_REQUIRE(std::isfinite(value), "json: number '" + token + "' overflows a double (at byte " +
                                          std::to_string(start) + ")");
    JsonValue v;
    v.kind_ = JsonValue::Kind::kNumber;
    v.number_ = value;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

namespace {

[[nodiscard]] const char* kind_name(JsonValue::Kind k) {
  switch (k) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kArray: return "array";
    case JsonValue::Kind::kObject: return "object";
  }
  return "?";
}

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

JsonValue JsonValue::parse_file(const std::string& path) {
  std::ifstream in(path);
  FNE_REQUIRE(static_cast<bool>(in), "cannot open json file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool JsonValue::as_bool() const {
  FNE_REQUIRE(kind_ == Kind::kBool, std::string("json: expected bool, got ") + kind_name(kind_));
  return bool_;
}

double JsonValue::as_number() const {
  FNE_REQUIRE(kind_ == Kind::kNumber,
              std::string("json: expected number, got ") + kind_name(kind_));
  return number_;
}

std::int64_t JsonValue::as_int() const {
  const double d = as_number();
  // Range first: casting a double outside [-2^63, 2^63) is undefined.
  FNE_REQUIRE(d >= -0x1p63 && d < 0x1p63, "json: integer out of range");
  const auto i = static_cast<std::int64_t>(d);
  FNE_REQUIRE(static_cast<double>(i) == d, "json: expected an integer, got a fraction");
  return i;
}

const std::string& JsonValue::as_string() const {
  FNE_REQUIRE(kind_ == Kind::kString,
              std::string("json: expected string, got ") + kind_name(kind_));
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  FNE_REQUIRE(kind_ == Kind::kArray, std::string("json: expected array, got ") + kind_name(kind_));
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  FNE_REQUIRE(kind_ == Kind::kObject,
              std::string("json: expected object, got ") + kind_name(kind_));
  return members_;
}

bool JsonValue::has(const std::string& key) const { return find(key) != nullptr; }

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    std::string keys;
    for (const auto& [k, unused] : members()) {
      if (!keys.empty()) keys += ", ";
      keys += k;
    }
    FNE_REQUIRE(false, "json: missing key '" + key + "' (present: " +
                           (keys.empty() ? "none" : keys) + ")");
  }
  return *v;
}

}  // namespace fne
