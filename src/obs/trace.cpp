#include "obs/trace.h"

#include <chrono>
#include <ostream>

#include "obs/text.h"

namespace numaio::obs {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CSV field quoting: always quoted, inner quotes doubled, so commas and
/// newlines in details cannot shear a row.
void csv_quote(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
}

}  // namespace

void JsonlSink::write(const Event& e) {
  std::string& b = buf_;
  b.clear();
  b += "{\"id\":";
  text::append_int(b, e.id);
  b += ",\"span\":";
  text::append_int(b, e.span);
  b += ",\"parent\":";
  text::append_int(b, e.parent);
  b += ",\"kind\":\"";
  b += e.kind;
  b += "\",\"name\":\"";
  text::json_escape(b, e.name);
  b += "\",\"node_a\":";
  text::append_int(b, e.node_a);
  b += ",\"node_b\":";
  text::append_int(b, e.node_b);
  b += ",\"dir\":\"";
  b += e.dir;
  b += "\",\"bytes\":";
  text::append_int(b, e.bytes);
  b += ",\"t\":";
  text::append_number(b, e.t_sim);
  b += ",\"outcome\":\"";
  text::json_escape(b, e.outcome);
  b += "\",\"detail\":\"";
  text::json_escape(b, e.detail);
  // Deterministic records (wall_us < 0) omit the one nondeterministic
  // field so same-seed trace files compare byte-equal.
  if (e.wall_us >= 0.0) {
    b += "\",\"wall_us\":";
    text::append_number(b, e.wall_us);
    b += "}\n";
  } else {
    b += "\"}\n";
  }
  out_.write(b.data(), static_cast<std::streamsize>(b.size()));
}

void CsvSink::write(const Event& e) {
  std::string& b = buf_;
  b.clear();
  if (!header_written_) {
    b += "id,span,parent,kind,name,node_a,node_b,dir,bytes,t,outcome,"
         "detail,wall_us\n";
    header_written_ = true;
  }
  text::append_int(b, e.id);
  b += ',';
  text::append_int(b, e.span);
  b += ',';
  text::append_int(b, e.parent);
  b += ',';
  b += e.kind;
  b += ',';
  csv_quote(b, e.name);
  b += ',';
  text::append_int(b, e.node_a);
  b += ',';
  text::append_int(b, e.node_b);
  b += ',';
  b += e.dir;
  b += ',';
  text::append_int(b, e.bytes);
  b += ',';
  text::append_number(b, e.t_sim);
  b += ',';
  csv_quote(b, e.outcome);
  b += ',';
  csv_quote(b, e.detail);
  b += ',';
  // Empty when deterministic.
  if (e.wall_us >= 0.0) text::append_number(b, e.wall_us);
  b += '\n';
  out_.write(b.data(), static_cast<std::streamsize>(b.size()));
}

void TraceRecorder::set_sink(TraceSink* sink) {
  sink_ = sink;
  if (sink_ != nullptr && !deterministic_ && epoch_ns_ < 0) {
    epoch_ns_ = steady_ns();
  }
}

EventId TraceRecorder::emit(char kind, std::string_view name, SpanId span,
                            EventId parent, std::string_view outcome,
                            const EventFields& fields) {
  Event e;
  e.id = next_id_++;
  e.span = span == 0 && kind == 'B' ? e.id : span;
  e.parent = parent;
  e.kind = kind;
  e.name.assign(name);
  e.node_a = fields.node_a;
  e.node_b = fields.node_b;
  e.dir = fields.dir;
  e.bytes = fields.bytes;
  e.t_sim = fields.t_sim;
  e.outcome.assign(outcome);
  e.detail.assign(fields.detail);
  if (deterministic_) {
    e.wall_us = -1.0;
  } else {
    if (epoch_ns_ < 0) epoch_ns_ = steady_ns();  // deterministic-then-not
    e.wall_us = static_cast<double>(steady_ns() - epoch_ns_) / 1000.0;
  }
  sink_->write(e);
  return e.id;
}

SpanId TraceRecorder::begin_span(std::string_view name, SpanId parent,
                                 const EventFields& fields) {
  if (sink_ == nullptr) return 0;
  return emit('B', name, 0, parent, {}, fields);
}

void TraceRecorder::end_span(SpanId span, std::string_view outcome,
                             const EventFields& fields) {
  if (sink_ == nullptr || span == 0) return;
  emit('E', {}, span, 0, outcome, fields);
}

EventId TraceRecorder::event(std::string_view name, SpanId span,
                             EventId cause, std::string_view outcome,
                             const EventFields& fields) {
  if (sink_ == nullptr) return 0;
  return emit('I', name, span, cause, outcome, fields);
}

}  // namespace numaio::obs
