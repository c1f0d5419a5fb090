#include "util/json.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace harvest::util {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue document() {
    JsonValue v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw JsonError(what + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r' ||
            text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  JsonValue value(std::size_t depth) {
    JsonValue v;
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth == kJsonMaxDepth) {
        fail("nesting deeper than " + std::to_string(kJsonMaxDepth));
      }
      ++pos_;
      if (c == '{') {
        v.kind = JsonValue::kObject;
        if (consume('}')) return v;
        do {
          std::string key = string();
          expect(':');
          v.members.emplace_back(std::move(key), value(depth + 1));
        } while (consume(','));
        expect('}');
      } else {
        v.kind = JsonValue::kArray;
        if (consume(']')) return v;
        do {
          v.items.push_back(value(depth + 1));
        } while (consume(','));
        expect(']');
      }
    } else if (c == '"') {
      v.kind = JsonValue::kString;
      v.text = string();
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      v.kind = JsonValue::kNumber;
      v.text = number();
    } else if (literal("true")) {
      v.kind = JsonValue::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.kind = JsonValue::kBool;
    } else if (!literal("null")) {
      fail("unexpected character");
    }
    return v;
  }

  std::size_t digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - start;
  }

  std::string number() {
    const std::size_t start = pos_;
    if (text_[pos_] == '-') ++pos_;
    if (digits() == 0) fail("malformed number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail("malformed number fraction");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) fail("malformed number exponent");
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  std::uint32_t hex4() {
    if (text_.size() - pos_ < 4) fail("truncated \\u escape");
    std::uint32_t unit = 0;
    const auto [end, ec] =
        std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4, unit, 16);
    if (ec != std::errc() || end != text_.data() + pos_ + 4) {
      fail("malformed \\u escape");
    }
    pos_ += 4;
    return unit;
  }

  /// The code point of a \u escape whose "\u" was consumed; a high
  /// surrogate must be followed by an escaped low one.
  std::uint32_t code_point() {
    const std::uint32_t unit = hex4();
    if (unit >= 0xDC00 && unit <= 0xDFFF) fail("unpaired low surrogate");
    if (unit < 0xD800 || unit > 0xDBFF) return unit;
    if (!literal("\\u")) fail("unpaired high surrogate");
    const std::uint32_t low = hex4();
    if (low < 0xDC00 || low > 0xDFFF) fail("unpaired high surrogate");
    return 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
      return;
    }
    // Lead byte 110xxxxx, 1110xxxx or 11110xxx, then 10xxxxxx per extra.
    const int extra = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out.push_back(static_cast<char>(((0xF0 << (3 - extra)) & 0xFF) |
                                    (cp >> (6 * extra))));
    for (int i = extra - 1; i >= 0; --i) {
      out.push_back(static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3F)));
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      if (pos_ >= text_.size()) fail("unterminated string");
      if (text_[pos_++] == '"') return out;
      if (pos_ >= text_.size()) fail("unterminated escape");
      switch (text_[pos_++]) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_utf8(out, code_point()); break;
        default: fail("unsupported escape");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::optional<std::uint64_t> JsonValue::as_uint() const {
  if (kind != kNumber) return std::nullopt;
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

std::optional<double> JsonValue::as_double() const {
  if (kind != kNumber) return std::nullopt;
  return std::strtod(text.c_str(), nullptr);
}

JsonValue parse_json(std::string_view text) { return Parser(text).document(); }

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace harvest::util
