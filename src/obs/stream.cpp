#include "obs/stream.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "obs/json.h"
#include "obs/text.h"

namespace numaio::obs {

namespace {

// ---------------------------------------------------------------------
// JSONL parse-back: the exact object layout JsonlSink writes, one record
// per line, keys accepted in any order so hand-edited fixtures also load.
// Keys and escape-free strings are read as views into the line and
// numbers are read in place, so a record costs no allocation once the
// reused Event's strings have grown to fit.

class ObjectCursor {
 public:
  ObjectCursor(std::string_view line, int line_no)
      : line_(line), line_no_(line_no) {}

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("trace line " + std::to_string(line_no_) +
                                ": " + what);
  }

  void skip_ws() {
    while (pos_ < line_.size() &&
           (line_[pos_] == ' ' || line_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool try_consume(char c) {
    skip_ws();
    if (pos_ < line_.size() && line_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!try_consume(c)) fail(std::string("expected '") + c + "'");
  }

  /// Reads a string token. The view points into the line, or into
  /// `scratch` when the token holds an escape and had to be decoded by
  /// the JSON reader's rule (json::decode_string).
  std::string_view read_string(std::string& scratch) {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != '"' && line_[pos_] != '\\') {
      ++pos_;
    }
    const std::string_view plain = line_.substr(start, pos_ - start);
    if (pos_ < line_.size() && line_[pos_] == '"') {
      ++pos_;
      return plain;
    }
    scratch.assign(plain);
    if (const char* error = json::decode_string(line_, pos_, scratch)) {
      fail(error);
    }
    return scratch;
  }

  double read_number() {
    skip_ws();
    double value = 0.0;
    if (!text::read_number(line_, pos_, value)) fail("expected a number");
    return value;
  }

  /// A number stored in an integer field: truncated like a cast, but
  /// rejected when the target type cannot hold it (NaN included).
  template <typename Int>
  Int read_integer() {
    const double v = read_number();
    if (!(v > static_cast<double>(std::numeric_limits<Int>::min()) - 1.0 &&
          v < static_cast<double>(std::numeric_limits<Int>::max()) + 1.0)) {
      fail("number out of range");
    }
    return static_cast<Int>(v);
  }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
  int line_no_;
};

/// The one JSONL record parser behind both JSONL sources. Overwrites
/// every field of `e`, keeping its strings' capacity; `scratch` receives
/// any string token that holds an escape.
void parse_into(std::string_view line, int line_no, Event& e,
                std::string& scratch) {
  // Absent keys take a fresh Event's defaults, except wall_us:
  // deterministic traces omit it and it then parses as -1.
  e.id = 0;
  e.span = 0;
  e.parent = 0;
  e.kind = 'I';
  e.name.clear();
  e.node_a = -1;
  e.node_b = -1;
  e.dir = '-';
  e.bytes = -1;
  e.t_sim = -1.0;
  e.outcome.clear();
  e.detail.clear();
  e.wall_us = -1.0;

  ObjectCursor cur(line, line_no);
  cur.expect('{');
  bool first = true;
  while (!cur.try_consume('}')) {
    if (!first) cur.expect(',');
    first = false;
    const std::string_view key = cur.read_string(scratch);
    cur.expect(':');
    // The key is compared before any value read reuses `scratch`.
    if (key == "id") {
      e.id = cur.read_integer<EventId>();
    } else if (key == "span") {
      e.span = cur.read_integer<SpanId>();
    } else if (key == "parent") {
      e.parent = cur.read_integer<EventId>();
    } else if (key == "kind") {
      const std::string_view v = cur.read_string(scratch);
      if (v.size() != 1) cur.fail("kind must be one character");
      e.kind = v[0];
    } else if (key == "name") {
      e.name.assign(cur.read_string(scratch));
    } else if (key == "node_a") {
      e.node_a = cur.read_integer<int>();
    } else if (key == "node_b") {
      e.node_b = cur.read_integer<int>();
    } else if (key == "dir") {
      const std::string_view v = cur.read_string(scratch);
      if (v.size() != 1) cur.fail("dir must be one character");
      e.dir = v[0];
    } else if (key == "bytes") {
      e.bytes = cur.read_integer<long long>();
    } else if (key == "t") {
      e.t_sim = cur.read_number();
    } else if (key == "outcome") {
      e.outcome.assign(cur.read_string(scratch));
    } else if (key == "detail") {
      e.detail.assign(cur.read_string(scratch));
    } else if (key == "wall_us") {
      e.wall_us = cur.read_number();
    } else {
      cur.fail("unknown field '" + std::string(key) + "'");
    }
  }
  if (e.id == 0) cur.fail("record without an id");
}

/// Synthetic records pair node ids of an 8-node host.
constexpr std::uint64_t kSyntheticNodes = 8;

}  // namespace

void JsonlFileSource::stream(TraceVisitor& visitor) {
  std::ifstream in(path_);
  if (!in) {
    throw std::runtime_error("cannot open trace file '" + path_ + "'");
  }
  std::string line;
  std::string scratch;
  Event e;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    parse_into(line, line_no, e, scratch);
    visitor.record(e);
  }
}

void JsonlTextSource::stream(TraceVisitor& visitor) {
  std::string scratch;
  Event e;
  std::size_t start = 0;
  int line_no = 0;
  while (start < text_.size()) {
    std::size_t end = text_.find('\n', start);
    if (end == std::string::npos) end = text_.size();
    ++line_no;
    const std::string_view line(text_.data() + start, end - start);
    if (!line.empty()) {
      parse_into(line, line_no, e, scratch);
      visitor.record(e);
    }
    start = end + 1;
  }
}

// ---------------------------------------------------------------------
// Synthetic workload generator.

void SyntheticTraceSource::stream(TraceVisitor& visitor) {
  if (config_.depth > 1) {
    stream_deep(visitor);
    return;
  }
  const std::uint64_t total = std::max<std::uint64_t>(config_.records, 8);
  const std::size_t window =
      static_cast<std::size_t>(std::max(config_.concurrent_streams, 1));

  // Inline xorshift64: the obs layer depends only on the standard
  // library, and a fixed recurrence keeps every pass bit-identical.
  std::uint64_t state =
      config_.seed != 0 ? config_.seed : 0x9e3779b97f4a7c15ull;
  const auto rng = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  EventId next_id = 1;
  double t = 0.0;
  std::uint64_t emitted = 0;
  const auto emit = [&](Event&& e) {
    e.wall_us = -1.0;  // deterministic shape, like --trace-deterministic
    ++emitted;
    visitor.record(e);
  };

  struct OpenStream {
    EventId id = 0;
  };
  std::deque<OpenStream> open;
  EventId last_fault = 0;

  Event root;
  root.id = next_id++;
  root.span = root.id;
  root.kind = 'B';
  root.name = "synth.run";
  root.t_sim = t;
  const EventId root_id = root.id;
  emit(std::move(root));

  const auto begin_stream = [&]() {
    Event b;
    b.id = next_id++;
    b.span = b.id;
    b.parent = root_id;
    b.kind = 'B';
    b.name = "synth.stream";
    b.node_a = static_cast<int>(rng() % kSyntheticNodes);
    b.node_b = static_cast<int>(rng() % kSyntheticNodes);
    b.dir = (rng() & 1) != 0 ? 'w' : 'r';
    b.t_sim = t;
    b.detail = "task " + std::to_string(b.id % 7);
    open.push_back({b.id});
    emit(std::move(b));
  };

  const auto close_oldest = [&]() {
    const OpenStream s = open.front();
    open.pop_front();
    Event e;
    e.id = next_id++;
    e.span = s.id;
    e.kind = 'E';
    e.t_sim = t;
    e.bytes = static_cast<long long>(1 + rng() % 64) * (1 << 20);
    const bool aborted = last_fault != 0 && rng() % 16 == 0;
    e.outcome = aborted ? "aborted" : "ok";
    emit(std::move(e));
  };

  while (true) {
    // Budget = records still available beyond the one E per open span
    // plus the root's E that the drain below must emit.
    const std::uint64_t committed = emitted + open.size() + 1;
    if (committed >= total) break;
    const std::uint64_t budget = total - committed;
    t += 1.0 + static_cast<double>(rng() % 997);
    const std::uint64_t roll = rng() % 10;
    if (open.size() < window && budget >= 2 && (open.empty() || roll < 3)) {
      begin_stream();
    } else if (roll < 5 && !open.empty()) {
      close_oldest();
    } else if (roll == 5) {
      Event f;
      f.id = next_id++;
      f.span = root_id;
      f.kind = 'I';
      f.name = "fault.transition";
      f.outcome = "degraded";
      f.detail = "link " + std::to_string(rng() % 4) + "-" +
                 std::to_string(4 + rng() % 4);
      f.t_sim = t;
      last_fault = f.id;
      emit(std::move(f));
    } else {
      Event i;
      i.id = next_id++;
      i.span = open.empty()
                   ? root_id
                   : open[static_cast<std::size_t>(rng() % open.size())].id;
      i.kind = 'I';
      i.t_sim = t;
      if (last_fault != 0 && roll >= 8) {
        i.name = "synth.retry";
        i.outcome = "retry";
        i.parent = last_fault;
      } else {
        i.name = "synth.attempt";
        i.outcome = "launched";
      }
      emit(std::move(i));
    }
  }

  while (!open.empty()) {
    t += 1.0 + static_cast<double>(rng() % 997);
    close_oldest();
  }
  t += 1.0 + static_cast<double>(rng() % 997);
  Event end;
  end.id = next_id++;
  end.span = root_id;
  end.kind = 'E';
  end.outcome = "ok";
  end.t_sim = t;
  emit(std::move(end));
}

// Deep-chain shape (config_.depth > 1): under one root, consecutive
// blocks of `depth` strictly nested spans — synth.d1;synth.d2;...;
// synth.leafK, with K cycling over `fanout` — each block fully closed
// (LIFO) before the next opens, instants padding the tail so the record
// count lands exactly on config_.records. The folded-stack stress
// fixture: 10^6 records fold into `fanout` deep stacks plus their
// prefixes while never holding more than depth + 1 open spans.
void SyntheticTraceSource::stream_deep(TraceVisitor& visitor) {
  const std::uint64_t total = std::max<std::uint64_t>(config_.records, 8);
  const std::uint64_t depth =
      static_cast<std::uint64_t>(std::max(config_.depth, 2));
  const std::uint64_t fanout =
      static_cast<std::uint64_t>(std::max(config_.fanout, 1));

  std::uint64_t state =
      config_.seed != 0 ? config_.seed : 0x9e3779b97f4a7c15ull;
  const auto rng = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  EventId next_id = 1;
  double t = 0.0;
  std::uint64_t emitted = 0;
  const auto emit = [&](Event&& e) {
    e.wall_us = -1.0;
    ++emitted;
    visitor.record(e);
  };
  const auto advance = [&] {
    t += 1.0 + static_cast<double>(rng() % 97);
  };

  Event root;
  root.id = next_id++;
  root.span = root.id;
  root.kind = 'B';
  root.name = "synth.run";
  root.t_sim = t;
  const EventId root_id = root.id;
  emit(std::move(root));

  // One block = depth begins + one instant + depth ends.
  const std::uint64_t block_records = 2 * depth + 1;
  std::uint64_t block = 0;
  std::vector<EventId> chain;
  chain.reserve(depth);
  while (emitted + block_records + 1 <= total) {
    chain.clear();
    EventId parent = root_id;
    for (std::uint64_t level = 0; level < depth; ++level) {
      advance();
      Event b;
      b.id = next_id++;
      b.span = b.id;
      b.parent = parent;
      b.kind = 'B';
      b.name = level + 1 == depth
                   ? "synth.leaf" + std::to_string(block % fanout)
                   : "synth.d" + std::to_string(level + 1);
      if (level + 1 == depth) {
        b.node_a = static_cast<int>(rng() % kSyntheticNodes);
        b.node_b = static_cast<int>(rng() % kSyntheticNodes);
        b.dir = (rng() & 1) != 0 ? 'w' : 'r';
      }
      b.t_sim = t;
      parent = b.id;
      chain.push_back(b.id);
      emit(std::move(b));
    }
    advance();
    Event i;
    i.id = next_id++;
    i.span = chain.back();
    i.kind = 'I';
    i.name = "synth.attempt";
    i.outcome = "launched";
    i.t_sim = t;
    emit(std::move(i));
    while (!chain.empty()) {
      advance();
      Event e;
      e.id = next_id++;
      e.span = chain.back();
      e.kind = 'E';
      e.outcome = "ok";
      e.t_sim = t;
      if (chain.size() == depth) {
        e.bytes = static_cast<long long>(1 + rng() % 64) * (1 << 20);
      }
      chain.pop_back();
      emit(std::move(e));
    }
    ++block;
  }

  // Pad to the exact record count (minus the root's end) with instants.
  while (emitted + 1 < total) {
    advance();
    Event i;
    i.id = next_id++;
    i.span = root_id;
    i.kind = 'I';
    i.name = "synth.attempt";
    i.outcome = "launched";
    i.t_sim = t;
    emit(std::move(i));
  }

  advance();
  Event end;
  end.id = next_id++;
  end.span = root_id;
  end.kind = 'E';
  end.outcome = "ok";
  end.t_sim = t;
  emit(std::move(end));
}

}  // namespace numaio::obs
