// Minimal JSON for machine-readable results and campaign files.
//
// Emission: bench binaries (--json=out.json), the scenario_runner CLI and
// CampaignReport emit report files — top-level scalars (workload, millis,
// speedup, thread count) plus named arrays of records — so a perf
// trajectory is a diffable artifact, not a scrollback screenshot.
//
// Parsing: JsonValue::parse is a small recursive-descent reader covering
// the whole of JSON (RFC 8259 minus \u surrogate pairs), added for
// campaign files (api/campaign.hpp): a campaign is declarative data, and
// flags stop scaling at "a list of scenarios".  Both directions live here
// so no third-party dependency is warranted.
#pragma once

#include <array>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/require.hpp"

namespace fne {

/// JSON object writer: fields stream, in insertion order, into one buffer.
/// Objects and arrays nest in place (open_object / open_array under a key,
/// open_object() for an array element, close() to end the innermost), so
/// a report of any depth is built in one buffer with no per-level copies.
/// Numbers render with std::to_chars: integers exactly, doubles in the
/// general format at precision 12, i.e. printf's "%.12g".
class JsonObject {
 public:
  JsonObject& put(std::string_view key, std::string_view value) {
    begin_field(key);
    buf_ += '"';
    append_escaped(value);
    buf_ += '"';
    return *this;
  }
  JsonObject& put(std::string_view key, const char* value) {
    return put(key, std::string_view(value));
  }
  JsonObject& put(std::string_view key, double value) {
    begin_field(key);
    append_number(value);
    return *this;
  }
  JsonObject& put(std::string_view key, bool value) {
    begin_field(key);
    buf_ += value ? "true" : "false";
    return *this;
  }
  JsonObject& put(std::string_view key, std::int64_t value) {
    begin_field(key);
    append_integer(value);
    return *this;
  }
  JsonObject& put(std::string_view key, std::uint64_t value) {
    begin_field(key);
    append_integer(value);
    return *this;
  }
  JsonObject& put(std::string_view key, int value) {
    return put(key, static_cast<std::int64_t>(value));
  }
  /// Splice an ALREADY-ENCODED JSON value (an object/array dump) under
  /// `key`.
  JsonObject& put_json(std::string_view key, std::string_view encoded) {
    begin_field(key);
    buf_ += encoded;
    return *this;
  }
  /// Splice `values` as a JSON array of numbers.
  JsonObject& put_numbers(std::string_view key, const std::vector<double>& values) {
    begin_field(key);
    buf_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) buf_ += ", ";
      append_number(values[i]);
    }
    buf_ += ']';
    return *this;
  }

  /// Open an object / array under `key`: what follows lands inside it
  /// until the matching close().
  JsonObject& open_object(std::string_view key) {
    begin_field(key);
    return open('{', '}');
  }
  JsonObject& open_array(std::string_view key) {
    begin_field(key);
    return open('[', ']');
  }
  /// Open an object as the next element of the innermost open array.
  JsonObject& open_object() {
    FNE_REQUIRE(!closers_.empty() && closers_.back() == ']',
                "json: an unkeyed object needs an open array");
    separate();
    return open('{', '}');
  }
  /// Close the innermost open object or array.
  JsonObject& close() {
    FNE_REQUIRE(!closers_.empty(), "json: close() with nothing open");
    buf_ += closers_.back();
    closers_.pop_back();
    first_ = false;
    return *this;
  }
  /// Capacity hint for the whole document, in bytes.
  JsonObject& reserve(std::size_t bytes) {
    buf_.reserve(bytes);
    return *this;
  }

  /// The finished document; REQUIREs every open_* to be closed.
  [[nodiscard]] std::string dump() const& {
    require_closed();
    std::string out;
    out.reserve(buf_.size() + 1);
    out += buf_;
    out += '}';
    return out;
  }
  /// As above, handing over the buffer instead of copying it.
  [[nodiscard]] std::string dump() && {
    require_closed();
    buf_ += '}';
    return std::move(buf_);
  }

 private:
  void separate() {
    if (!first_) buf_ += ", ";
    first_ = false;
  }
  void begin_field(std::string_view key) {
    FNE_REQUIRE(closers_.empty() || closers_.back() == '}',
                "json: a keyed field needs an open object");
    separate();
    buf_ += '"';
    append_escaped(key);
    buf_ += "\": ";
  }
  JsonObject& open(char opener, char closer) {
    buf_ += opener;
    closers_ += closer;
    first_ = true;
    return *this;
  }
  void require_closed() const {
    FNE_REQUIRE(closers_.empty(), "json: dump() with an object or array still open");
  }
  /// Per byte: 0 to copy it as is, else the character after its
  /// backslash ('u' for \u00XX).  All of U+0000-U+001F is escaped.
  static constexpr std::array<char, 256> kEscapes = [] {
    std::array<char, 256> t{};
    for (int c = 0; c < 0x20; ++c) t[c] = 'u';
    t['\n'] = 'n';
    t['\r'] = 'r';
    t['\t'] = 't';
    t['"'] = '"';
    t['\\'] = '\\';
    return t;
  }();
  void append_escaped(std::string_view s) {
    std::size_t run = 0;  // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto c = static_cast<unsigned char>(s[i]);
      const char e = kEscapes[c];
      if (e == 0) continue;
      buf_ += s.substr(run, i - run);
      buf_ += '\\';
      buf_ += e;
      if (e == 'u') {
        buf_ += "00";
        buf_ += "0123456789abcdef"[c >> 4];
        buf_ += "0123456789abcdef"[c & 0xF];
      }
      run = i + 1;
    }
    buf_ += s.substr(run);
  }
  void append_number(double value) {
    char text[32];  // "%.12g" needs at most 19: -d.ddddddddddde-ddd
    const std::to_chars_result r =
        std::to_chars(text, text + sizeof(text), value, std::chars_format::general, 12);
    buf_.append(text, r.ptr);
  }
  template <typename Int>
  void append_integer(Int value) {
    char text[24];
    const std::to_chars_result r = std::to_chars(text, text + sizeof(text), value);
    buf_.append(text, r.ptr);
  }

  std::string buf_ = "{";  ///< the document so far, top-level '}' not yet written
  std::string closers_;    ///< closing brackets of the open nested values, innermost last
  bool first_ = true;      ///< no field or element yet at the innermost level
};

/// A report = one top-level object plus named arrays of flat records.
class JsonReport {
 public:
  explicit JsonReport(std::string name) { top_.put("name", std::move(name)); }

  [[nodiscard]] JsonObject& top() noexcept { return top_; }

  /// Append a record to the named array (created on first use).
  [[nodiscard]] JsonObject& record(const std::string& array) {
    for (auto& [name, rows] : arrays_) {
      if (name == array) {
        rows.emplace_back();
        return rows.back();
      }
    }
    arrays_.emplace_back(array, std::vector<JsonObject>{});
    arrays_.back().second.emplace_back();
    return arrays_.back().second.back();
  }

  [[nodiscard]] std::string dump() const {
    std::string body = top_.dump();
    body.pop_back();  // reopen the top object to splice the arrays in
    for (const auto& [name, rows] : arrays_) {
      body += ", \"" + name + "\": [";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) body += ", ";
        body += rows[i].dump();
      }
      body += "]";
    }
    return body + "}";
  }

  /// Write to `path`; returns false (with a note on stderr) on IO failure.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write json report to " << path << "\n";
      return false;
    }
    out << dump() << "\n";
    // Status goes to stderr: stdout may itself be a machine-readable
    // stream (--csv, --json) that a note would corrupt.
    std::cerr << "(json written to " << path << ")\n";
    return true;
  }

 private:
  JsonObject top_;
  std::vector<std::pair<std::string, std::vector<JsonObject>>> arrays_;
};

/// A parsed JSON document node.  Object members keep their source order;
/// lookups REQUIRE-fail with the offending key/kind in the message, so a
/// malformed campaign file names its problem instead of defaulting.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  /// Parse a complete document (REQUIREs valid JSON and no trailing
  /// garbage; the error names the byte offset).
  [[nodiscard]] static JsonValue parse(const std::string& text);
  /// Parse the file at `path` (REQUIREs it to exist and parse).
  [[nodiscard]] static JsonValue parse_file(const std::string& path);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }

  /// Typed accessors; REQUIRE the matching kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] std::int64_t as_int() const;  ///< REQUIREs an integral number
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;   ///< array elements
  [[nodiscard]] const std::vector<Member>& members() const;    ///< object members

  // Object conveniences.
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const JsonValue* find(const std::string& key) const;  ///< nullptr if absent
  [[nodiscard]] const JsonValue& at(const std::string& key) const;    ///< REQUIREs presence

 private:
  friend class JsonParser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

}  // namespace fne
