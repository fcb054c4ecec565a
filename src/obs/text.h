// Text rendering and number scanning shared by the obs serializers
// (JsonlSink, CsvSink, the Chrome and Prometheus exporters, and through
// obs/json.h the metrics JSON and run reports) and parsers (the JSONL
// trace cursor and the obs::json reader), plus the number grammar of
// every other text input (parse_number, docs/FORMATS.md "Numbers").
//
// numaio.h exports it for parse_number and split_words, which the
// format parsers outside obs share. Each appender writes into a
// caller-owned std::string, so a serializer renders a whole record into
// one reused buffer and hands it to its stream in a single write(). The
// number appenders write exactly the bytes of the printf formats they
// replace (%.17g for numbers, %.3f for Chrome microseconds), so captures
// and exports stay byte-identical; the integral values that simulated
// timestamps almost always are take an integer path that never reaches
// the floating-point formatter.
#pragma once

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace numaio::obs::text {

/// Appends an integer in decimal.
template <typename Int>
void append_int(std::string& out, Int value) {
  static_assert(std::is_integral_v<Int>);
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

/// Appends `text` JSON-escaped: quote, backslash, newline and tab get
/// their short escapes, other bytes below 0x20 go out as \u00XX, and
/// every other byte (0x80 and up included) passes through raw.
inline void json_escape(std::string& out, std::string_view text) {
  std::size_t run = 0;  // start of the pending unescaped bytes
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.substr(run, i - run));
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
        out.append(esc, sizeof esc);
      }
    }
    run = i + 1;
  }
  out.append(text.substr(run));
}

/// Appends `v` as printf("%.17g") does: enough digits to round-trip,
/// trailing zeros trimmed. Integral values below 2^53 are exact int64s,
/// whose decimal digits are exactly what %.17g prints.
inline void append_number(std::string& out, double v) {
  constexpr double kTwo53 = 9007199254740992.0;
  if (v > -kTwo53 && v < kTwo53) {
    const auto n = static_cast<std::int64_t>(v);
    if (static_cast<double>(n) == v && !(n == 0 && std::signbit(v))) {
      append_int(out, n);
      return;
    }
  }
  char buf[32];
  const char* end = std::to_chars(buf, buf + sizeof buf, v,
                                  std::chars_format::general, 17)
                        .ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

/// Appends `ns / 1e3` as printf("%.3f") does: nanoseconds rendered as
/// microseconds at nanosecond resolution. An integral n below 2^42 µs
/// (about 4.39e15 ns) takes integer quotient and remainder: there the
/// double n / 1e3 lies within 2^-12 of the decimal q.rrr, so %.3f rounds
/// back to exactly those digits.
inline void append_us(std::string& out, double ns) {
  constexpr double kExactNs = 4398046511104000.0;  // 2^42 µs
  if (ns >= 0.0 && ns < kExactNs && !std::signbit(ns)) {
    const auto n = static_cast<std::int64_t>(ns);
    if (static_cast<double>(n) == ns) {
      append_int(out, n / 1000);
      const auto r = static_cast<int>(n % 1000);
      const char frac[] = {'.', static_cast<char>('0' + r / 100),
                           static_cast<char>('0' + r / 10 % 10),
                           static_cast<char>('0' + r % 10)};
      out.append(frac, sizeof frac);
      return;
    }
  }
  char buf[320];  // %.3f of DBL_MAX / 1e3 is 306 digits + ".000"
  const char* end = std::to_chars(buf, buf + sizeof buf, ns / 1e3,
                                  std::chars_format::fixed, 3)
                        .ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

/// append_number() into a fresh string, for ostream call sites that
/// render a handful of numbers per document.
inline std::string format_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

/// Reads the number starting at text[pos] with std::from_chars and moves
/// `pos` past it. The grammar: an optional '-', then decimal or exponent
/// form, or inf/nan; no '+', no hex, no leading whitespace. Subnormals
/// parse; values that overflow, or underflow to zero, do not. Returns
/// false, leaving `pos` alone, when no number starts at `pos`.
inline bool read_number(std::string_view text, std::size_t& pos,
                        double& value) {
  const char* first = text.data() + pos;
  const auto [ptr, ec] =
      std::from_chars(first, text.data() + text.size(), value);
  if (ec != std::errc()) return false;
  pos += static_cast<std::size_t>(ptr - first);
  return true;
}

/// The words of `line`: its runs of non-space bytes (std::isspace), as
/// views into it.
inline std::vector<std::string_view> split_words(std::string_view line) {
  std::vector<std::string_view> words;
  const auto space = [&line](std::size_t i) {
    return std::isspace(static_cast<unsigned char>(line[i])) != 0;
  };
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && space(i)) ++i;
    const std::size_t start = i;
    while (i < line.size() && !space(i)) ++i;
    if (i > start) words.push_back(line.substr(start, i - start));
  }
  return words;
}

/// Reads all of `token` as one T, an integer type or double: the number
/// grammar of the job files, host models, transfer traces, fault plans,
/// numactl and core lists and the CLI flags. The token must be a single
/// std::from_chars value of T with nothing before or after it (no '+',
/// no whitespace, no hex, no trailing bytes; an integer takes no
/// fraction or exponent), and a double must also be finite. Sets `value`
/// and returns std::errc() on success; returns
/// std::errc::result_out_of_range for a number T cannot hold (for a
/// double: one that overflows or underflows to zero, inf or nan) and
/// std::errc::invalid_argument for anything else, leaving `value` alone.
template <typename T>
std::errc parse_number(std::string_view token, T& value) {
  static_assert(std::is_integral_v<T> || std::is_same_v<T, double>);
  T parsed{};
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, parsed);
  if (ec == std::errc::invalid_argument || ptr != end) {
    return std::errc::invalid_argument;
  }
  if (ec != std::errc()) return ec;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(parsed)) return std::errc::result_out_of_range;
  }
  value = parsed;
  return std::errc();
}

}  // namespace numaio::obs::text
