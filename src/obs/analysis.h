// Trace analysis: from a raw record stream to the three artifacts a
// characterization run is judged by.
//
// PR 2 made the pipeline *emit* its story (spans, instants, cause edges);
// this module makes the story computable. Given a capture — any
// RecordSource (obs/stream.h): a JSONL file, an in-memory MemorySink
// vector, a synthetic workload — analyze_stream() derives:
//
//   1. per-span-kind aggregates: how many fio.stream / iomodel.probe /
//      online.run spans ran, their simulated time, bytes and outcome mix;
//   2. the critical path: the longest causally-linked chain of records,
//      walking the span tree from the dominant root down to the dominant
//      leaf and onward through cause edges to the fault.transition that
//      shaped it (every step cites the record id from the capture);
//   3. a per-node-pair contention heatmap: each transfer span's simulated
//      stall time — time beyond what the fastest same-kind transfer would
//      have needed — attributed to the (node_a, node_b) path it ran on,
//      i.e. to the links and memory controllers between that pair.
//
// The analyzer is streaming and multi-pass: pass 1 folds span-kind
// aggregates, the fault audit and the critical-path skeleton while
// holding only the currently *open* spans (each carrying its dominant
// closed-child chain); one follow-up pass attributes contention stall
// against the per-group reference rates pass 1 established and resolves
// the leaf's cause pivot; each further cause-chain link costs one more
// (cheap, bounded) pass. Memory is O(open spans + span kinds + node
// pairs), never O(records) — the §4a record-order guarantees (monotonic
// ids, LIFO span nesting, causes before consequences) are what make the
// single-visit fold equivalent to the old whole-capture reassembly.
//
// Everything here is a pure function of the record stream: analyzing the
// same capture twice yields identical results, and no wall-clock field is
// ever read, so reports built on top are byte-deterministic for
// deterministic traces.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/stream.h"
#include "obs/trace.h"

namespace numaio::obs {

/// Aggregates over every span sharing one name ("span kind").
struct SpanKindStats {
  std::string name;       ///< e.g. "fio.stream".
  int count = 0;          ///< Spans begun.
  int unclosed = 0;       ///< Begins with no matching end record.
  double total_ns = 0.0;  ///< Sum of simulated durations (timed spans).
  double max_ns = 0.0;    ///< Longest single span.
  long long bytes = 0;    ///< Sum of end-record bytes (where recorded).
  /// Outcome -> span count, sorted by outcome string.
  std::vector<std::pair<std::string, int>> outcomes;
};

/// One step of the critical path, root-first. Span steps carry their
/// exclusive simulated time (duration minus the chosen child's); the
/// trailing cause steps (an instant and the record it cites) carry 0.
struct CriticalPathStep {
  EventId id = 0;       ///< Record id in the capture.
  std::string name;
  std::string outcome;
  std::string detail;
  double start_ns = -1.0;  ///< Span begin / instant time; -1 untimed.
  double end_ns = -1.0;    ///< Span end time; -1 untimed / instant.
  double self_ns = 0.0;    ///< Exclusive contribution to the path.
};

/// Simulated stall time attributed to one directed node pair: the links
/// and memory controllers on the node_a -> node_b path.
struct ContentionCell {
  int node_a = -1;
  int node_b = -1;
  int spans = 0;          ///< Transfer spans that ran on this pair.
  long long bytes = 0;    ///< Payload carried over the pair.
  double busy_ns = 0.0;   ///< Sum of span durations on the pair.
  double stall_ns = 0.0;  ///< busy time beyond the uncontended ideal.

  double stall_frac() const {
    return busy_ns > 0.0 ? stall_ns / busy_ns : 0.0;
  }
};

/// Degraded-mode audit: every fault transition, what it caused, and the
/// retry/abort totals of the run.
struct FaultAudit {
  int transitions = 0;  ///< fault.transition records.
  int retries = 0;      ///< "*.retry" instants.
  int aborts = 0;       ///< "*.abort" instants + spans ended "aborted".
  int caused = 0;       ///< Records citing a fault.transition as cause.
  /// Per-transition consequence count, label = "<detail> <outcome> (id N)",
  /// sorted by count descending then record id. Transitions that caused
  /// nothing are included with count 0.
  std::vector<std::pair<std::string, int>> by_fault;
};

struct TraceAnalysis {
  int num_records = 0;
  double first_ns = -1.0;  ///< Earliest simulated timestamp (-1: untimed).
  double last_ns = -1.0;   ///< Latest simulated timestamp.
  std::vector<SpanKindStats> span_kinds;  ///< Sorted by name.
  std::vector<CriticalPathStep> critical_path;  ///< Root-first.
  double critical_path_ns = 0.0;  ///< Root span duration (end-to-end).
  /// Sorted by stall_ns descending, then (node_a, node_b).
  std::vector<ContentionCell> contention;
  FaultAudit faults;
  // Streaming-core diagnostics (deterministic, but deliberately not
  // rendered into reports): what the analysis *cost*, not what it found.
  int passes = 0;  ///< Record-stream passes consumed.
  std::uint64_t peak_open_spans = 0;  ///< High-water mark of concurrently
                                      ///< tracked open spans.
};

/// Streaming analysis over a restartable record source; holds open spans
/// plus fixed-size aggregates, never the capture. Identical output to
/// analyze_trace() on the same records.
TraceAnalysis analyze_stream(RecordSource& source);

/// Pure analysis of an in-memory capture (any order-preserving capture
/// of one recorder's output; ids must be unique). A thin wrapper that
/// streams the vector through analyze_stream().
TraceAnalysis analyze_trace(const std::vector<Event>& events);

}  // namespace numaio::obs
