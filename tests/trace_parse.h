// Test helper: the records of a JSONL trace document, read through
// JsonlTextSource into a MemorySink. JsonlTextSource shares its line
// parser with the JsonlFileSource that `report --trace-in` streams.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/stream.h"
#include "obs/trace.h"

namespace numaio::obs::test_support {

inline std::vector<Event> parse_jsonl(std::string text) {
  MemorySink sink;
  JsonlTextSource source(std::move(text));
  source.stream(sink);
  return std::move(sink.events);
}

}  // namespace numaio::obs::test_support
