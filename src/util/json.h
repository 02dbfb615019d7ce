// Minimal JSON reader: a recursive-descent parser into a small value tree.
// The repo's telemetry/trace/tap documents are all *written* by hand-rolled
// emitters (util/telemetry, util/trace); this is the matching read side for
// the tools that consume them (examples/ahs_top tails telemetry_live.json,
// tests parse exported documents to assert they are never torn).
//
// Scope: strict RFC-8259 subset — objects, arrays, strings (with the
// standard escapes incl. \uXXXX for the BMP), numbers (parsed as double),
// true/false/null.  Parse failures throw util::PreconditionError with the
// byte offset.  Not a streaming parser; documents here are kilobytes.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace util {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  /// Insertion order preserved (the emitters write sorted keys anyway).
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  bool is_null() const { return kind == Kind::kNull; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  /// Typed accessors with defaults — the tolerant style a live-file tailer
  /// needs (a field missing from an older schema reads as the default).
  double as_number(double fallback = 0.0) const {
    return kind == Kind::kNumber ? number : fallback;
  }
  bool as_bool(bool fallback = false) const {
    return kind == Kind::kBool ? boolean : fallback;
  }
  const std::string& as_string(const std::string& fallback) const {
    return kind == Kind::kString ? str : fallback;
  }

  /// find() + as_number/as_string over one optional hop.
  double number_at(std::string_view key, double fallback = 0.0) const;
  std::string string_at(std::string_view key,
                        const std::string& fallback = "") const;
};

/// Deepest nesting of arrays and objects parse_json accepts.  Parsing
/// recurses once per level, so the cap keeps a hostile line from
/// exhausting the stack; every document the system emits stays far below.
inline constexpr int kMaxJsonDepth = 64;

/// Parses one complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).  Throws util::PreconditionError on malformed input,
/// including nesting deeper than kMaxJsonDepth.
JsonValue parse_json(std::string_view text);

}  // namespace util
