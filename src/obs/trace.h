// Structured tracing for the measurement pipeline.
//
// The paper's methodology stands on *attributable* bandwidth numbers
// (Algorithm 1's per-node samples, Eq. 1's 3.1% validation); once the
// degraded-mode paths landed (retries, timed-out streams, migrations) a
// reported Gbps stopped telling the whole story. A TraceRecorder
// captures that story as a flat stream of records:
//
//   span begin  ('B')  an operation opens: a fio job, one of its streams,
//                      an Algorithm 1 probe, an online-scheduler run;
//   span end    ('E')  the operation closes with an outcome;
//   instant     ('I')  something happened inside a span: an attempt
//                      launched, a retry, a fault transition, a placement.
//
// Every record gets a process-unique, monotonically increasing `id`; a
// begin record's id *is* the span's id. Records carry two parentage
// fields: `span` (the enclosing span) and `parent` (for 'B' the parent
// span, for 'I' the *cause* — e.g. a stream-abort event points at the
// fault-transition event that killed it). That cause edge is what makes a
// degraded run auditable: trace consumers can walk from any aborted
// stream back to the fault that did it.
//
// Recording is pull-free and sink-driven: with no sink attached the
// recorder is a handful of predicted branches (begin_span returns 0 and
// nothing allocates), so instrumented code paths can stay instrumented in
// production builds. Sinks receive each record as it is emitted; JSONL and
// CSV sinks serialize them line by line (docs/FORMATS.md §4), MemorySink
// keeps them for tests, TeeSink fans one stream out to several. All
// fields except `wall_us` (a steady-clock timestamp) are deterministic
// for deterministic workloads: two same-seed runs produce identical
// traces modulo wall_us — and byte-identical ones under
// set_deterministic(true), which never samples the clock and makes the
// serializers omit the field entirely (the CLI's --trace-deterministic).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace numaio::obs {

using SpanId = std::uint64_t;
using EventId = std::uint64_t;

/// Optional payload fields shared by spans and instant events. Defaults
/// mean "not applicable" and serialize as such.
struct EventFields {
  int node_a = -1;            ///< NUMA node pair: source / cpu side.
  int node_b = -1;            ///< NUMA node pair: sink / device side.
  char dir = '-';             ///< 'w' device-write, 'r' device-read, '-'.
  long long bytes = -1;       ///< Payload bytes, -1 when not applicable.
  double t_sim = -1.0;        ///< Simulated time (ns), -1 when untimed.
  std::string_view detail{};  ///< Freeform context (reason, attempt #...).
};

/// One trace record, as handed to sinks.
struct Event {
  EventId id = 0;       ///< Unique, monotonically increasing.
  SpanId span = 0;      ///< Enclosing span ('B'/'E': the span itself).
  EventId parent = 0;   ///< 'B': parent span. 'I': causing record (0 none).
  char kind = 'I';      ///< 'B' begin span, 'E' end span, 'I' instant.
  std::string name;     ///< Dotted event name, e.g. "fio.retry".
  int node_a = -1;
  int node_b = -1;
  char dir = '-';
  long long bytes = -1;
  double t_sim = -1.0;
  std::string outcome;  ///< "ok", "retry", "abort", "fallback", ...
  std::string detail;
  /// Steady-clock microseconds since recorder start; -1 in deterministic
  /// mode (serializers omit the field for negative values).
  double wall_us = 0.0;
};

/// Receives records as they are emitted. Implementations must not call
/// back into the recorder.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const Event& event) = 0;
};

/// One JSON object per line; every field always present, `wall_us` last so
/// deterministic comparisons can strip it textually. Each record is
/// rendered into a reused buffer and reaches the stream in one write().
class JsonlSink : public TraceSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}
  void write(const Event& event) override;

 private:
  std::ostream& out_;
  std::string buf_;
};

/// Header + one comma-separated row per record; strings are quoted with
/// doubled inner quotes (RFC 4180 style). Rows are buffered like
/// JsonlSink's records.
class CsvSink : public TraceSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}
  void write(const Event& event) override;

 private:
  std::ostream& out_;
  std::string buf_;
  bool header_written_ = false;
};

/// Receives records one at a time from a streaming pass — a RecordSource
/// replay (obs/stream.h) or a live recorder tap. The consumption-side
/// counterpart of TraceSink: sinks serialize a run as it happens,
/// visitors accumulate analysis state without holding the capture.
class TraceVisitor {
 public:
  virtual ~TraceVisitor() = default;
  virtual void record(const Event& event) = 0;
};

/// Keeps everything in memory; for tests and small in-process captures.
/// Both a sink (attach to a recorder) and a visitor (target of a
/// RecordSource pass) — the thin adapter between the buffered and
/// streaming worlds.
class MemorySink : public TraceSink, public TraceVisitor {
 public:
  void write(const Event& event) override { events.push_back(event); }
  void record(const Event& event) override { events.push_back(event); }
  std::vector<Event> events;
};

/// Fans each record out to every attached sink, in attachment order; lets
/// one run feed a file serializer and an in-process MemorySink at once.
class TeeSink : public TraceSink {
 public:
  void add(TraceSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  void write(const Event& event) override {
    for (TraceSink* sink : sinks_) sink->write(event);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

class TraceRecorder {
 public:
  /// Attaches a sink (nullptr detaches: the null-sink fast path). The sink
  /// must outlive recording.
  void set_sink(TraceSink* sink);
  bool enabled() const { return sink_ != nullptr; }
  /// The attached sink (nullptr when detached) — lets callers tee a live
  /// tap with whatever sink is already wired (the CLI's --serve-port).
  TraceSink* sink() const { return sink_; }

  /// Deterministic mode: never sample the wall clock; every record carries
  /// wall_us = -1 and the JSONL/CSV serializers omit the field, so two
  /// same-seed runs produce byte-identical trace files with no textual
  /// post-processing. Set before (or with) the sink.
  void set_deterministic(bool deterministic) { deterministic_ = deterministic; }
  bool deterministic() const { return deterministic_; }

  /// Opens a span; the returned id doubles as the record id. Returns 0
  /// (and records nothing) when no sink is attached.
  SpanId begin_span(std::string_view name, SpanId parent = 0,
                    const EventFields& fields = {});

  /// Closes a span with an outcome. No-op for span id 0 or no sink.
  void end_span(SpanId span, std::string_view outcome = "ok",
                const EventFields& fields = {});

  /// Emits an instant event inside `span`, optionally caused by another
  /// record (`cause`, e.g. a fault transition). Returns the event id, 0
  /// when not recording.
  EventId event(std::string_view name, SpanId span = 0, EventId cause = 0,
                std::string_view outcome = {},
                const EventFields& fields = {});

  /// Records emitted since the recorder was constructed (sink or not —
  /// disabled periods emit nothing and advance nothing).
  std::uint64_t records_emitted() const { return next_id_ - 1; }

 private:
  EventId emit(char kind, std::string_view name, SpanId span, EventId parent,
               std::string_view outcome, const EventFields& fields);

  TraceSink* sink_ = nullptr;
  EventId next_id_ = 1;
  bool deterministic_ = false;
  std::int64_t epoch_ns_ = -1;  ///< Steady-clock origin, set on first sink.
};

}  // namespace numaio::obs
