// The record-stream core the analysis/export stack is built on.
//
// A capture is a flat stream of Event records (obs/trace.h); everything
// that consumes one — analyze_stream(), the Chrome exporter, the run
// report — is written against two small interfaces instead of a
// materialized std::vector<Event>:
//
//   TraceVisitor   receives records one at a time (declared in trace.h
//                  next to TraceSink, its producer-side twin);
//   RecordSource   a *restartable* stream: every stream() call replays
//                  the full capture through a visitor, in record order.
//
// Restartability is the load-bearing property. The analyzers are
// multi-pass by design (span-skeleton fold, then contention attribution
// and cause-chain descent), and a source that can be replayed lets each
// pass hold only open spans plus fixed-size aggregates — memory stays
// O(active spans + nodes²) no matter how many records the capture holds,
// which is what lets `numaio_cli report --trace-in` chew through
// million-record replay traces (ROADMAP "Trace scale").
//
// Sources provided here:
//   VectorSource        an in-memory capture (MemorySink vector);
//   JsonlFileSource     a JSONL capture file, re-read line by line on
//                       every pass (FORMATS.md §4a, including the
//                       record-order guarantees streaming relies on);
//   JsonlTextSource     a JSONL document already in a string;
//   SyntheticTraceSource a deterministic generated workload of arbitrary
//                       record count with a bounded open-span window —
//                       the scale harness for benches, ctests and the
//                       CLI's `synth-trace` subcommand.
//
// Adapters: VisitorSink taps a live TraceRecorder straight into a
// visitor (no intermediate buffer); SinkVisitor points a source at a
// serializer (how `synth-trace` writes its JSONL file).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace numaio::obs {

/// A restartable stream of trace records. Each stream() call replays the
/// whole capture through the visitor in record order; multi-pass
/// consumers call it again instead of buffering records. Implementations
/// must deliver identical records on every pass.
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  virtual void stream(TraceVisitor& visitor) = 0;
};

/// Adapts an in-memory capture (e.g. a MemorySink's vector) to the
/// streaming interface. The vector must outlive the source.
class VectorSource final : public RecordSource {
 public:
  explicit VectorSource(const std::vector<Event>& events)
      : events_(events) {}
  void stream(TraceVisitor& visitor) override {
    for (const Event& e : events_) visitor.record(e);
  }

 private:
  const std::vector<Event>& events_;
};

/// Streams a JSONL capture file, reopening and re-reading it line by
/// line on every pass, so memory never depends on capture size. Throws
/// std::runtime_error when the file cannot be opened and
/// std::invalid_argument (with a line number) on malformed records.
class JsonlFileSource final : public RecordSource {
 public:
  explicit JsonlFileSource(std::string path) : path_(std::move(path)) {}
  void stream(TraceVisitor& visitor) override;

 private:
  std::string path_;
};

/// Streams records parsed from a JSONL document already in memory (tests
/// and captures small enough to slurp).
class JsonlTextSource final : public RecordSource {
 public:
  explicit JsonlTextSource(std::string text) : text_(std::move(text)) {}
  void stream(TraceVisitor& visitor) override;

 private:
  std::string text_;
};

/// Wraps a visitor as a TraceSink so a live TraceRecorder can feed a
/// streaming consumer directly — analysis during the run, no capture
/// buffer at all.
class VisitorSink final : public TraceSink {
 public:
  explicit VisitorSink(TraceVisitor& visitor) : visitor_(visitor) {}
  void write(const Event& event) override { visitor_.record(event); }

 private:
  TraceVisitor& visitor_;
};

/// Wraps a sink as a visitor so a RecordSource pass can drive a
/// serializer (e.g. SyntheticTraceSource -> JsonlSink).
class SinkVisitor final : public TraceVisitor {
 public:
  explicit SinkVisitor(TraceSink& sink) : sink_(sink) {}
  void record(const Event& event) override { sink_.write(event); }

 private:
  TraceSink& sink_;
};

/// Shape of a generated workload: one root span, a rolling window of at
/// most `concurrent_streams` open transfer spans, instants (attempts and
/// retries citing periodic fault transitions) inside them. Everything is
/// a pure function of this config, so every stream() pass regenerates
/// the identical records.
struct SyntheticTraceConfig {
  std::uint64_t records = 1000000;  ///< Total records emitted (min 8).
  int concurrent_streams = 32;      ///< Open-span window (excl. the root).
  int nodes = 8;                    ///< Node ids drawn for transfer pairs.
  std::uint64_t seed = 42;          ///< Generator seed.
  /// depth > 1 switches to the deep-chain shape: consecutive blocks of
  /// `depth` nested spans (synth.d1;...;synth.leafK paths), the folded-
  /// stack stress fixture. Open spans stay <= depth + 1. depth <= 1
  /// keeps the classic rolling-window shape byte-identical.
  int depth = 1;
  /// Deep-chain mode: distinct leaf names cycled across chains, i.e. the
  /// number of distinct folded stacks the capture produces.
  int fanout = 1;
};

/// Deterministic synthetic capture of arbitrary size with a bounded
/// open-span count: the scale fixture behind the `trace_stream` bench,
/// the 10^6-record ctest and `numaio_cli synth-trace`. Records honor the
/// §4a order guarantees (monotonic ids, LIFO span nesting, causes before
/// consequences) and carry node pairs/bytes so the contention and fault
/// analyzers have real work to do.
class SyntheticTraceSource final : public RecordSource {
 public:
  explicit SyntheticTraceSource(const SyntheticTraceConfig& config = {})
      : config_(config) {}
  void stream(TraceVisitor& visitor) override;

 private:
  void stream_deep(TraceVisitor& visitor);

  SyntheticTraceConfig config_;
};

}  // namespace numaio::obs
