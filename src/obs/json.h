// The repo's one JSON document reader, and the quoting and number rules
// its writers share: the metrics JSON (MetricsRegistry::to_json /
// parse_metrics_json, docs/FORMATS.md §4c) and the run report
// (model::render_json / parse_report_json, §5c).
//
// Not part of the public API: numaio.h does not export it. The JSONL
// trace path keeps its own cursor (obs/stream.cpp): it reads a fixed,
// flat record in place and builds no tree, but it decodes strings by
// the same rule, through decode_string.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace numaio::obs::json {

/// One parsed JSON value. Objects keep their members in document order,
/// duplicate keys included.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> fields;

  /// The first member named `key`, or nullptr.
  const Value* find(std::string_view key) const;
};

/// Parses one JSON document. Numbers follow text::read_number: no '+',
/// no hex, no overflow, and inf and nan parse because the writers emit
/// them. Strings decode the standard escapes (\uXXXX to UTF-8, surrogate
/// pairs joined). Containers nest at most 64 deep, so hostile input
/// cannot overflow the stack. Throws std::invalid_argument naming the
/// byte offset.
Value parse(std::string_view text);

/// Decodes the body of a JSON string literal, appending it to `out`:
/// `pos` indexes the byte after the opening quote and ends just past the
/// closing one. The standard escapes decode, \uXXXX to UTF-8 with
/// surrogate pairs joined. Returns nullptr, or what is wrong with `pos`
/// left at the fault.
const char* decode_string(std::string_view text, std::size_t& pos,
                          std::string& out);

/// `text` as a JSON string literal, escaped by text::json_escape.
std::string quote(std::string_view text);

/// `v` as printf("%.17g") prints it (text::format_number).
std::string number(double v);

}  // namespace numaio::obs::json
