// Live-telemetry tests (obs/serve.h): hub publish/read semantics, the
// tap's refresh cadence (first record, timed refreshes, flush), and the
// HTTP endpoint scraped over a real loopback socket while fleet storms
// feed the tap — the second scrape's counters must be monotonically >=
// the first, and every scrape must survive the shared Prometheus
// parse-back validator (tests/prom_parse.h).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.h"
#include "obs/obs.h"
#include "obs/serve.h"
#include "obs/stream.h"
#include "obs/trace.h"
#include "prom_parse.h"

namespace numaio::obs {
namespace {

using test_support::parse_back;

/// A connected loopback TCP socket, or -1.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends `request` as is over loopback; returns the full response
/// (status line + headers + body), empty string on connect failure.
std::string http_send(int port, const std::string& request) {
  const int fd = connect_loopback(port);
  if (fd < 0) return "";
  (void)!::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Minimal HTTP/1.0 GET of `path`.
std::string http_get(int port, const std::string& path) {
  return http_send(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

std::string body_of(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  return at == std::string::npos ? "" : response.substr(at + 4);
}

/// Label-free sample values (counters/gauges/_sum/_count lines) from an
/// exposition document — the monotonicity surface of a scrape.
std::map<std::string, double> sample_values(const std::string& text) {
  std::map<std::string, double> values;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find('{') != std::string::npos) continue;
    const std::size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    values[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return values;
}

TEST(TelemetryHub, PublishReplacesDocumentsAndBumpsGeneration) {
  TelemetryHub hub;
  EXPECT_EQ(hub.generation(), 0u);
  EXPECT_TRUE(hub.metrics_text().empty());
  hub.publish("m1", "r1");
  EXPECT_EQ(hub.generation(), 1u);
  EXPECT_EQ(hub.metrics_text(), "m1");
  EXPECT_EQ(hub.report_text(), "r1");
  hub.publish("m2", "r2");
  EXPECT_EQ(hub.generation(), 2u);
  EXPECT_EQ(hub.metrics_text(), "m2");
}

TEST(TelemetryTap, FirstRecordAlwaysPublishesThenCadenceGates) {
  TelemetryHub hub;
  MetricsRegistry metrics;
  // A cadence far beyond the test's runtime: only the first record and
  // the explicit flush may publish.
  TelemetryTap tap(hub, &metrics, /*refresh_ms=*/60000);
  Event e;
  e.id = 1;
  e.kind = 'I';
  e.name = "fleet.admit";
  e.t_sim = 1.0;
  tap.record(e);
  EXPECT_EQ(hub.generation(), 1u);
  for (int i = 2; i <= 10; ++i) {
    e.id = static_cast<EventId>(i);
    tap.record(e);
  }
  EXPECT_EQ(hub.generation(), 1u) << "cadence must gate mid-run records";
  EXPECT_EQ(tap.records_seen(), 10u);
  tap.flush();
  EXPECT_EQ(hub.generation(), 2u);
}

TEST(TelemetryTap, RefreshCadenceElapsesWithWallClock) {
  TelemetryHub hub;
  TelemetryTap tap(hub, nullptr, /*refresh_ms=*/40);
  Event e;
  e.id = 1;
  e.kind = 'I';
  e.name = "x";
  tap.record(e);
  ASSERT_EQ(hub.generation(), 1u);
  e.id = 2;
  tap.record(e);  // immediately after: inside the refresh window
  EXPECT_EQ(hub.generation(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  e.id = 3;
  tap.record(e);  // past the window: must publish
  EXPECT_EQ(hub.generation(), 2u);
}

TEST(TelemetryServer, ServesHubDocumentsAndRejectsUnknownPaths) {
  TelemetryHub hub;
  hub.publish("# TYPE numaio_x_total counter\nnumaio_x_total 1\n",
              "# rolling report\n");
  TelemetryServer server(hub);
  server.start(0);  // ephemeral
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos) << metrics;
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_EQ(body_of(metrics),
            "# TYPE numaio_x_total counter\nnumaio_x_total 1\n");

  const std::string report = http_get(server.port(), "/report");
  EXPECT_NE(report.find("text/markdown"), std::string::npos) << report;
  EXPECT_EQ(body_of(report), "# rolling report\n");

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_EQ(body_of(health), "ok generation=1\n");

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos) << missing;

  server.stop();
  server.stop();  // idempotent
}

TEST(TelemetryServer, IdleClientDoesNotBlockScrapes) {
  // The accept thread serves one connection at a time. A client that
  // connects and never sends a request must not hold /healthz and
  // /metrics hostage: the server's receive timeout drops it.
  TelemetryHub hub;
  hub.publish("numaio_x_total 1\n", "");
  TelemetryServer server(hub);
  server.start(0);
  const int idle = connect_loopback(server.port());
  ASSERT_GE(idle, 0);

  auto scrape = std::async(std::launch::async, [&server] {
    return http_get(server.port(), "/healthz");
  });
  const bool answered = scrape.wait_for(std::chrono::seconds(5)) ==
                        std::future_status::ready;
  ::close(idle);  // lets a server without the timeout finish the test
  ASSERT_TRUE(answered) << "an idle connection blocked /healthz";
  EXPECT_EQ(body_of(scrape.get()), "ok generation=1\n");

  const int idle_again = connect_loopback(server.port());
  ASSERT_GE(idle_again, 0);
  EXPECT_EQ(body_of(http_get(server.port(), "/metrics")),
            "numaio_x_total 1\n");
  ::close(idle_again);
  server.stop();
}

TEST(TelemetryServer, MalformedRequestsGetAnAnswerAndLeaveItUp) {
  TelemetryHub hub;
  hub.publish("numaio_x_total 1\n", "");
  TelemetryServer server(hub);
  server.start(0);
  // No space, so no request target.
  EXPECT_NE(http_send(server.port(), "GET\r\n\r\n").find("404 Not Found"),
            std::string::npos);
  // A NUL byte is part of the target, not its end.
  const std::string nul("GET /metrics\0 HTTP/1.0\r\n\r\n", 26);
  EXPECT_NE(http_send(server.port(), nul).find("404 Not Found"),
            std::string::npos);
  // 1 KiB with no terminator: the one read is the request.
  std::string unterminated = "GET /metrics HTTP/1.0\r\nX-Pad: ";
  unterminated.resize(1024, 'x');
  EXPECT_EQ(body_of(http_send(server.port(), unterminated)),
            "numaio_x_total 1\n");
  EXPECT_EQ(body_of(http_get(server.port(), "/healthz")), "ok generation=1\n");
  server.stop();
}

TEST(TelemetryServe, LiveFleetScrapesAreMonotonicAndParseBack) {
  // The refresh-cadence ctest of the ISSUE: drive fleet storms through
  // a live tap, scrape /metrics over a real socket after each round, and
  // require (a) both scrapes round-trip the shared exposition-format
  // validator, (b) every label-free sample in the second scrape is >=
  // its first-scrape value (counters and histogram _count/_sum only
  // ever grow), (c) the rolling report advanced with the run.
  Context ctx;
  ctx.trace.set_deterministic(true);
  TelemetryHub hub;
  TelemetryTap tap(hub, &ctx.metrics, /*refresh_ms=*/25);
  VisitorSink tap_sink(tap);
  ctx.trace.set_sink(&tap_sink);
  TelemetryServer server(hub);
  server.start(0);
  ASSERT_GT(server.port(), 0);

  const auto run_round = [&](std::uint64_t seed) {
    fleet::StormScenario storm = fleet::make_storm(
        /*num_hosts=*/2, /*num_tenants=*/2, /*offered_rps=*/120.0, seed,
        /*horizon=*/0.3e9);
    fleet::FleetSim sim(storm.config, storm.tenants);
    sim.set_fault_plan(std::move(storm.plan));
    sim.set_observer(&ctx);
    sim.run();
    tap.flush();
  };

  run_round(3);
  const std::uint64_t generation_after_first = hub.generation();
  EXPECT_GE(generation_after_first, 1u);
  const std::string first = body_of(http_get(server.port(), "/metrics"));
  ASSERT_FALSE(first.empty());

  run_round(4);
  EXPECT_GT(hub.generation(), generation_after_first)
      << "second round must republish";
  const std::string second = body_of(http_get(server.port(), "/metrics"));
  ASSERT_FALSE(second.empty());

  std::map<std::string, std::string> first_types;
  parse_back(first, &first_types);
  std::map<std::string, std::string> second_types;
  parse_back(second, &second_types);
  EXPECT_NE(second_types.count("numaio_sched_queue_wait_ms"), 0u)
      << second;

  const std::map<std::string, double> before = sample_values(first);
  const std::map<std::string, double> after = sample_values(second);
  ASSERT_FALSE(before.empty());
  int compared = 0;
  for (const auto& [name, value] : before) {
    const auto it = after.find(name);
    ASSERT_NE(it, after.end()) << "sample vanished between scrapes: "
                               << name;
    if (name.rfind("_total") != std::string::npos ||
        name.rfind("_count") != std::string::npos ||
        name.rfind("_sum") != std::string::npos) {
      EXPECT_GE(it->second, value) << name << " went backwards";
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);

  const std::string report = body_of(http_get(server.port(), "/report"));
  EXPECT_NE(report.find("# numaio live telemetry"), std::string::npos);
  EXPECT_NE(report.find("## Scheduler latency (rolling)"),
            std::string::npos);
  EXPECT_NE(report.find("p99.9"), std::string::npos);
  server.stop();
}

TEST(TelemetryServe, SyntheticStreamRollsTheReportForward) {
  // The tap is source-agnostic: a synthetic deep trace through the same
  // VisitorSink path must populate the folded-stack section.
  TelemetryHub hub;
  TelemetryTap tap(hub, nullptr, /*refresh_ms=*/0);  // publish every record
  SyntheticTraceConfig config;
  config.records = 64;
  config.depth = 4;
  SyntheticTraceSource source(config);
  source.stream(tap);
  EXPECT_EQ(hub.generation(), 64u);
  tap.flush();
  const std::string report = hub.report_text();
  EXPECT_NE(report.find("synth.run"), std::string::npos) << report;
  EXPECT_NE(report.find("## Folded stacks"), std::string::npos);
}

}  // namespace
}  // namespace numaio::obs
