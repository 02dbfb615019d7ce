#include "util/json.h"

#include <cctype>
#include <cstdlib>

#include "util/error.h"

namespace util {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number_at(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->as_number(fallback) : fallback;
}

std::string JsonValue::string_at(std::string_view key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr ? v->as_string(fallback) : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after JSON document");
    return v;
  }

 private:
  void fail(const std::string& what) const {
    AHS_REQUIRE(false,
                "JSON parse error at byte " + std::to_string(pos_) + ": " +
                    what);
  }

  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    require(pos_ < text_.size() && text_[pos_] == c,
            "unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // A throw abandons the parser, so only a return unwinds the count.
        require(++depth_ <= kMaxJsonDepth, "JSON nested too deeply");
        JsonValue v = text_[pos_] == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.str = parse_string();
        return v;
      }
      case 't': {
        JsonValue v;
        require(consume_literal("true"), "invalid literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      }
      case 'f': {
        JsonValue v;
        require(consume_literal("false"), "invalid literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      }
      case 'n': {
        JsonValue v;
        require(consume_literal("null"), "invalid literal");
        return v;
      }
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      require(c == ',', "expected ',' or '}' in object");
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      require(c == ',', "expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control char in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      require(pos_ < text_.size(), "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode(out); break;
        default: fail("invalid escape");
      }
    }
  }

  void append_unicode(std::string& out) {
    const unsigned cp = parse_hex4();
    // BMP only (no surrogate-pair recombination) — the emitters in this
    // repo never write astral-plane text.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    require(pos_ + 4 <= text_.size(), "truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("invalid \\u escape");
    }
    return v;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    require(pos_ > start, "expected a value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    require(end != nullptr && *end == '\0' && end != tok.c_str(),
            "malformed number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = d;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace util
