// Live telemetry: a rolling snapshot of a run in flight, scrapeable
// while the run is still running.
//
// Every exporter so far renders *after* the run; a fleet storm or a
// million-record replay is invisible until it exits. This module closes
// that gap with three small pieces:
//
//   TelemetryHub     a mutex-guarded mailbox holding the latest rendered
//                    Prometheus text and rolling report, plus a
//                    generation counter (how many refreshes happened).
//                    Writers publish whole documents; readers copy them
//                    out — no partial reads, no reader/writer aliasing.
//
//   TelemetryTap     a TraceVisitor that rides the live record stream
//                    (attach to a TraceRecorder via VisitorSink, usually
//                    teed with the file sink). It feeds the profiling
//                    collectors (obs/profile.h) record by record and, on
//                    a wall-clock cadence (`refresh_ms`), renders the
//                    attached MetricsRegistry + scheduler-latency
//                    histograms to Prometheus text and a rolling
//                    markdown report, publishing both into the hub.
//                    Rendering happens on the *run* thread — the only
//                    thread mutating the registry — so the tap never
//                    races the instrumentation.
//
//   TelemetryServer  a deliberately tiny blocking HTTP/1.0 endpoint on
//                    127.0.0.1 (one accept thread, one request per
//                    connection) serving GET /metrics (Prometheus text
//                    exposition 0.0.4), /report (the rolling markdown)
//                    and /healthz from the hub. Enough for a Prometheus
//                    scrape job or `curl`; not a web server. A request
//                    is one read of at most 1 KiB, and a client that
//                    sends nothing is dropped after a fixed receive
//                    timeout, so an idle connection delays other scrapes
//                    by at most that long.
//
// Wiring lives in the CLI: `numaio_cli serve` and `fleet --serve-port`
// (docs/OBSERVABILITY.md "Live telemetry"). Port 0 binds an ephemeral
// port, reported by port() — what the refresh-cadence ctest uses.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace numaio::obs {

class TelemetryHub {
 public:
  /// Atomically replaces both documents and bumps the generation.
  void publish(std::string metrics_text, std::string report_text);

  std::string metrics_text() const;
  std::string report_text() const;
  /// Number of publishes so far; 0 until the first refresh lands.
  std::uint64_t generation() const;

 private:
  mutable std::mutex mu_;
  std::string metrics_;
  std::string report_;
  std::uint64_t generation_ = 0;
};

class TelemetryTap final : public TraceVisitor {
 public:
  /// `metrics` may be nullptr (trace-only runs); both referents must
  /// outlive the tap. refresh_ms <= 0 publishes on every record.
  TelemetryTap(TelemetryHub& hub, const MetricsRegistry* metrics,
               int refresh_ms);

  void record(const Event& event) override;

  /// Renders and publishes immediately — call when the run ends so the
  /// final state is scrapeable regardless of cadence phase.
  void flush();

  std::uint64_t records_seen() const { return records_; }

 private:
  bool refresh_due();
  std::string render_report() const;

  TelemetryHub& hub_;
  const MetricsRegistry* metrics_;
  SchedLatencyCollector sched_;
  FoldedStackCollector fold_{FoldWeight::kSelf};
  /// name -> {count, total simulated ns}: the rolling span summary.
  std::map<std::string, std::pair<std::uint64_t, double>> span_totals_;
  std::map<EventId, std::pair<std::string, double>> open_spans_;
  std::uint64_t records_ = 0;
  int refresh_ms_;
  std::chrono::steady_clock::time_point last_publish_;
  bool published_once_ = false;
};

/// The document a request to TelemetryServer asks for.
enum class Route { kMetrics, kReport, kHealthz, kNotFound };

/// Routes the raw bytes of one request by its target, the bytes between
/// its first and second space ("GET /metrics HTTP/1.0"): /metrics,
/// /report, and /healthz or / (health). Any other target, and a request
/// without one, is kNotFound. `request` may hold any bytes, NUL included;
/// the method and everything after the target are ignored.
Route route_request(std::string_view request);

class TelemetryServer {
 public:
  /// Serves `hub`, which must outlive the server.
  explicit TelemetryServer(const TelemetryHub& hub) : hub_(&hub) {}
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept
  /// thread. Throws std::runtime_error when the socket can't be set up.
  void start(int port);

  /// The bound port; valid after start().
  int port() const { return port_; }

  /// Stops accepting and joins the thread. Idempotent.
  void stop();

 private:
  void serve_loop();

  const TelemetryHub* hub_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

}  // namespace numaio::obs
