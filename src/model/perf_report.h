// Run reports: one deterministic document that answers "what did this
// run measure, what dominated its time, and what got in the way".
//
// The paper's deliverables are the Tables IV/V class structure and the
// Eq. 1 validation; fio's degraded mode adds retries and aborts under
// faults on top. A RunReport bundles all of it —
//
//   - the class table of the characterized host (when the run built one),
//   - the trace analysis: span aggregates, the critical path with real
//     record ids, the per-node-pair contention heatmap,
//   - the fault/retry audit and the run's deterministic counters —
//
// and renders to Markdown (human review, checked into experiment logs) or
// JSON (machine diffing, the perf-regression harness). Both renderings
// are pure functions of the inputs: a fixed seed plus --trace-deterministic
// reproduces them byte-for-byte, which is what `numaio_cli report` CTests
// pin.
#pragma once

#include <string>
#include <vector>

#include "model/characterize.h"
#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace numaio::model {

/// Critical-path rows a report renders.
inline constexpr int kReportPathSteps = 16;

struct RunReportOptions {
  int top_contended = 5;  ///< Contention rows rendered (top-k by stall).
};

struct RunReport {
  std::string command;  ///< Provenance, e.g. "report --seed 42 --reps 12".
  bool has_model = false;
  HostModel model;  ///< Valid when has_model.
  obs::TraceAnalysis analysis;
  /// Deterministic counters AND gauges from the run's registry, merged
  /// name-sorted into one table. Histograms are deliberately excluded:
  /// solver.solve_us buckets wall time and would break byte-determinism.
  std::vector<obs::MetricsRegistry::NamedValue> counters;
  /// §6: queue-wait / dispatch-to-start / migration-delay distributions
  /// derived from the capture's fleet.*/sched.* records (obs/profile.h).
  /// Simulated-time based, so it stays byte-deterministic.
  obs::SchedLatencyProfile sched;
};

/// Assembles a report by streaming a record source through the analyzer
/// — the capture is never materialized, so `--trace-in` reports work on
/// arbitrarily large JSONL files. `model` and `metrics` may be nullptr
/// (trace-only reports, e.g. from a loaded capture file).
RunReport build_run_report(std::string command, const HostModel* model,
                           obs::RecordSource& source,
                           const obs::MetricsRegistry* metrics);

/// In-memory convenience wrapper over the streaming overload.
RunReport build_run_report(std::string command, const HostModel* model,
                           const std::vector<obs::Event>& events,
                           const obs::MetricsRegistry* metrics);

std::string render_markdown(const RunReport& report,
                            const RunReportOptions& options = {});
std::string render_json(const RunReport& report,
                        const RunReportOptions& options = {});

/// The diffable surface of one rendered JSON report — what
/// `report --diff old.json` compares: provenance, the class structure
/// (Tables IV/V), the critical path, span-kind totals and the fault
/// audit.
struct ReportSummary {
  std::string command;
  int records = 0;
  double critical_path_ns = 0.0;
  struct ClassRow {
    int target = -1;
    std::string dir;      ///< "write" / "read".
    std::string classes;  ///< "{0 1} {4 5 6 7}" — serialized-model syntax.
    std::string avgs;     ///< "18.3 / 12.1" — per-class avg Gbps.
  };
  std::vector<ClassRow> classes;
  struct PathStep {
    obs::EventId id = 0;
    std::string name;
    std::string outcome;
    double self_ns = 0.0;
  };
  std::vector<PathStep> critical_path;
  struct SpanRow {
    std::string name;
    int count = 0;
    double total_ns = 0.0;
  };
  std::vector<SpanRow> span_kinds;
  int fault_transitions = 0;
  int retries = 0;
  int aborts = 0;
  int caused = 0;
  /// §6 scheduler-latency rows; empty when the report predates them
  /// (parse tolerates their absence so old baselines still diff).
  struct SchedRow {
    std::string name;
    int count = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
  };
  std::vector<SchedRow> sched_latency;
};

/// Parses a render_json() document back into its diffable summary,
/// through the obs::json reader. Throws std::invalid_argument on
/// malformed input.
ReportSummary parse_report_json(const std::string& text);

/// Renders the class-structure / critical-path / span / fault deltas
/// between two report summaries — the Tables IV/V before/after story in
/// one deterministic document.
std::string diff_reports(const ReportSummary& before,
                         const ReportSummary& after);

}  // namespace numaio::model
