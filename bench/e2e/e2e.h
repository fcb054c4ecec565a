// Shared pieces of bench_e2e: the benchmark's own spans, output checks,
// the simulated-result digest and the workload interface.
//
// Everything here lives outside the library on purpose: the benchmark
// times only calls into each layer's public functions, so a change inside
// a layer is measured, never measuring itself.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The benchmark's own spans: one per call into a library layer, kept in
/// memory until the process exits. `rep` tags which repetition a span
/// belongs to, so per-rep stage totals need no nesting bookkeeping.
class Spans {
 public:
  struct Span {
    const char* stage;  ///< Static string, e.g. "fleet.run".
    int rep;
    double ms;
  };

  /// Runs `body` inside a span named `stage` and returns its result.
  template <typename Body>
  auto time(const char* stage, Body&& body) {
    const Clock::time_point start = Clock::now();
    auto result = body();
    close(stage, start);
    return result;
  }

  void set_rep(int rep) { rep_ = rep; }
  int rep() const { return rep_; }
  const std::vector<Span>& all() const { return spans_; }

  /// Summed duration of `stage` spans in repetition `rep` (nullptr: all
  /// stages).
  double total_ms(int rep, const char* stage = nullptr) const;

 private:
  void close(const char* stage, Clock::time_point start);

  int rep_ = 0;
  std::vector<Span> spans_;
};

/// Output checks: every evaluation counts as attempted; failures are
/// counted and the first few are kept verbatim for the result line.
class Checks {
 public:
  void expect(bool ok, std::string_view what);
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::string> failures_;
};

/// FNV-1a (64-bit) over the simulated results of one rep. Doubles hash by
/// bit pattern: a speed-only change must leave every bit where it was.
class Digest {
 public:
  void add(std::string_view bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  void add(double v) { add_raw(v); }
  void add(long long v) { add_raw(v); }
  void add(int v) { add_raw(static_cast<long long>(v)); }
  void add(std::uint64_t v) { add_raw(v); }
  std::uint64_t value() const { return hash_; }

 private:
  template <typename T>
  void add_raw(T v) {
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    add(std::string_view(raw, sizeof raw));
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Values keyed by metric name (per-layer metrics, info fields).
using Values = std::map<std::string, double>;

/// What one repetition produced.
struct RepResult {
  double work = 0.0;         ///< Units of work done (workload-defined).
  std::uint64_t digest = 0;  ///< Digest of the simulated results.
  /// Traced reps only: per-layer values by catalogue name. A name ending
  /// in "_ms" is a layer's wall time inside the rep; bench_e2e reports
  /// it as "<name>_share", a fraction of the rep's wall time.
  Values layer;
  /// Informational values of this rep (simulated-time results, model
  /// accuracy, stage rates), printed but never gated.
  Values info;
  /// Wall times (ms) of the rep's work items, for workloads that time
  /// each item on its own; empty otherwise.
  std::vector<double> item_ms;
};

/// One benchmark workload. Construction is the input build and object
/// construction of set-up; rep() is one repetition.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One repetition, timed from outside. `traced` attaches the library's
  /// observability (an obs::Context behind an aggregating sink) where the
  /// API accepts one, and fills RepResult::layer.
  virtual RepResult rep(Spans& spans, Checks& checks, bool traced) = 0;

  /// Untimed follow-up to a traced rep: extra passes that measure a
  /// layer against its bound.
  virtual void after_traced_rep(Checks& checks, Values& layer) {
    (void)checks;
    (void)layer;
  }
};

struct WorkloadSpec {
  const char* name;
  std::uint64_t default_seed;
  /// Builds the workload. `scale` multiplies its size (1 = the benchmark
  /// size; the smoke test runs a tiny fraction).
  std::unique_ptr<Workload> (*make)(std::uint64_t seed, double scale);
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();

}  // namespace e2e
