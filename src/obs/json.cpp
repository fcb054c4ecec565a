#include "obs/json.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <system_error>

#include "obs/text.h"

namespace numaio::obs::json {

namespace {

/// Appends code point `cp` (at most 0x10FFFF) as UTF-8.
void append_utf8(std::string& out, unsigned cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
    return;
  }
  if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
  }
  out += static_cast<char>(0x80 | (cp & 0x3F));
}

/// The four hex digits of one \u escape at `pos`, or false.
bool hex4(std::string_view text, std::size_t& pos, unsigned& unit) {
  const char* first = text.data() + pos;
  const char* last = first + std::min<std::size_t>(4, text.size() - pos);
  const auto [ptr, ec] = std::from_chars(first, last, unit, 16);
  if (ec != std::errc() || ptr != first + 4) return false;
  pos += 4;
  return true;
}

/// Recursive descent over one document.
class Reader {
 public:
  explicit Reader(std::string_view text) : text_(text) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON: " + what + " at offset " +
                                std::to_string(pos_));
  }

  void skip_ws() {
    pos_ = std::min(text_.find_first_not_of(" \t\n\r", pos_), text_.size());
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  /// `depth` counts the containers enclosing this value.
  Value value(int depth) {
    skip_ws();
    Value v;
    const char c = peek();
    if (c == '{' || c == '[') {
      if (depth >= kMaxDepth) {
        fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      const char close = c == '{' ? '}' : ']';
      v.kind = c == '{' ? Value::Kind::kObject : Value::Kind::kArray;
      ++pos_;
      skip_ws();
      if (consume(close)) return v;
      do {
        if (v.kind == Value::Kind::kArray) {
          v.items.push_back(value(depth + 1));
        } else {
          skip_ws();
          std::string key = string_body();
          skip_ws();
          expect(':');
          v.fields.emplace_back(std::move(key), value(depth + 1));
        }
        skip_ws();
      } while (consume(','));
      expect(close);
    } else if (c == '"') {
      v.kind = Value::Kind::kString;
      v.str = string_body();
    } else if (consume_word("true") || consume_word("false")) {
      v.kind = Value::Kind::kBool;
      v.boolean = c == 't';
    } else if (!consume_word("null")) {
      v.kind = Value::Kind::kNumber;
      if (!text::read_number(text_, pos_, v.num)) fail("expected a value");
    }
    return v;
  }

  std::string string_body() {
    expect('"');
    std::string out;
    if (const char* error = decode_string(text_, pos_, out)) fail(error);
    return out;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* decode_string(std::string_view text, std::size_t& pos,
                          std::string& out) {
  while (true) {
    const std::size_t stop = text.find_first_of("\"\\", pos);
    if (stop == std::string_view::npos) return "unterminated string";
    out.append(text.substr(pos, stop - pos));
    pos = stop + 1;
    if (text[stop] == '"') return nullptr;
    if (pos >= text.size()) return "unterminated escape";
    const char esc = text[pos++];
    if (esc != 'u') {
      constexpr std::string_view kEscaped = "\"\\/bfnrt";
      constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
      const std::size_t k = kEscaped.find(esc);
      if (k == std::string_view::npos) return "unknown escape";
      out += kDecoded[k];
      continue;
    }
    unsigned cp = 0;
    if (!hex4(text, pos, cp)) return "bad \\u escape";
    if (cp >= 0xD800 && cp <= 0xDFFF) {
      // A UTF-16 surrogate pair spans two escapes.
      if (cp > 0xDBFF || text.substr(pos, 2) != "\\u") {
        return "unpaired surrogate";
      }
      pos += 2;
      unsigned low = 0;
      if (!hex4(text, pos, low)) return "bad \\u escape";
      if (low < 0xDC00 || low > 0xDFFF) return "unpaired surrogate";
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    }
    append_utf8(out, cp);
  }
}

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : fields) {
    if (k == key) return &v;
  }
  return nullptr;
}

Value parse(std::string_view text) { return Reader(text).document(); }

std::string quote(std::string_view text) {
  std::string out = "\"";
  text::json_escape(out, text);
  out += '"';
  return out;
}

std::string number(double v) { return text::format_number(v); }

}  // namespace numaio::obs::json
