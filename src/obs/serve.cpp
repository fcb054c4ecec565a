#include "obs/serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/export.h"

namespace numaio::obs {

// ---------------------------------------------------------------------
// TelemetryHub.

void TelemetryHub::publish(std::string metrics_text,
                           std::string report_text) {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_ = std::move(metrics_text);
  report_ = std::move(report_text);
  generation_ += 1;
}

std::string TelemetryHub::metrics_text() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

std::string TelemetryHub::report_text() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

std::uint64_t TelemetryHub::generation() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

// ---------------------------------------------------------------------
// TelemetryTap.

TelemetryTap::TelemetryTap(TelemetryHub& hub, const MetricsRegistry* metrics,
                           int refresh_ms)
    : hub_(hub),
      metrics_(metrics),
      refresh_ms_(refresh_ms),
      last_publish_(std::chrono::steady_clock::now()) {}

void TelemetryTap::record(const Event& event) {
  records_ += 1;
  sched_.record(event);
  fold_.record(event);
  if (event.kind == 'B') {
    open_spans_.emplace(event.id,
                        std::make_pair(event.name, event.t_sim));
  } else if (event.kind == 'E') {
    const auto it = open_spans_.find(event.span);
    if (it != open_spans_.end()) {
      auto& [count, total_ns] = span_totals_[it->second.first];
      count += 1;
      if (it->second.second >= 0.0 && event.t_sim >= it->second.second) {
        total_ns += event.t_sim - it->second.second;
      }
      open_spans_.erase(it);
    }
  }
  if (refresh_due()) flush();
}

bool TelemetryTap::refresh_due() {
  if (!published_once_) return true;  // first record: expose *something*
  if (refresh_ms_ <= 0) return true;
  const auto now = std::chrono::steady_clock::now();
  return now - last_publish_ >= std::chrono::milliseconds(refresh_ms_);
}

void TelemetryTap::flush() {
  std::ostringstream prom;
  if (metrics_ != nullptr) {
    // The registry is only ever mutated by the thread feeding this tap,
    // so the copy is race-free; merging the scheduler-latency histograms
    // into the copy keeps the live run's own registry untouched.
    MetricsRegistry snapshot = *metrics_;
    sched_.profile().merge_into(snapshot);
    export_prometheus(snapshot, prom);
  } else {
    MetricsRegistry snapshot;
    sched_.profile().merge_into(snapshot);
    export_prometheus(snapshot, prom);
  }
  hub_.publish(prom.str(), render_report());
  last_publish_ = std::chrono::steady_clock::now();
  published_once_ = true;
}

std::string TelemetryTap::render_report() const {
  std::ostringstream out;
  char buf[96];
  out << "# numaio live telemetry\n\n";
  out << "- records seen: " << records_ << "\n";
  out << "- open spans: " << open_spans_.size() << "\n\n";
  out << "## Span summary (rolling)\n\n";
  if (span_totals_.empty()) {
    out << "(no spans closed yet)\n";
  } else {
    out << "| span kind | count | total ms |\n|---|---|---|\n";
    for (const auto& [name, agg] : span_totals_) {
      std::snprintf(buf, sizeof buf, "%.3f", agg.second / 1e6);
      out << "| " << name << " | " << agg.first << " | " << buf << " |\n";
    }
  }
  out << "\n## Scheduler latency (rolling)\n\n";
  const SchedLatencyProfile& p = sched_.profile();
  if (p.empty()) {
    out << "(no scheduler records yet)\n";
  } else {
    out << "| metric | count | p50 ms | p95 ms | p99 ms | p99.9 ms |\n"
        << "|---|---|---|---|---|---|\n";
    for (const MetricsRegistry::Histogram* h :
         {&p.queue_wait, &p.dispatch, &p.migration}) {
      std::snprintf(buf, sizeof buf,
                    "| %s | %llu | %.3f | %.3f | %.3f | %.3f |\n",
                    h->name.c_str(),
                    static_cast<unsigned long long>(h->count),
                    h->quantile(0.50), h->quantile(0.95), h->quantile(0.99),
                    h->quantile(0.999));
      out << buf;
    }
  }
  out << "\n## Folded stacks (self time, closed spans)\n\n```\n";
  fold_.write(out);
  out << "```\n";
  return out.str();
}

// ---------------------------------------------------------------------
// TelemetryServer.

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;  // peer went away: drop the response
    sent += static_cast<std::size_t>(n);
  }
}

/// How long the accept thread waits for a client's request. It serves
/// one connection at a time, so this bounds how long an idle client can
/// stall every other scrape.
constexpr int kRecvTimeoutMs = 250;

std::string http_response(const char* status, const char* content_type,
                          const std::string& body) {
  std::ostringstream out;
  out << "HTTP/1.0 " << status << "\r\n"
      << "Content-Type: " << content_type << "\r\n"
      << "Content-Length: " << body.size() << "\r\n"
      << "Connection: close\r\n\r\n"
      << body;
  return out.str();
}

}  // namespace

Route route_request(std::string_view request) {
  const std::size_t sp1 = request.find(' ');
  if (sp1 == std::string_view::npos) return Route::kNotFound;
  const std::size_t sp2 = request.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return Route::kNotFound;
  const std::string_view target = request.substr(sp1 + 1, sp2 - sp1 - 1);
  if (target == "/metrics") return Route::kMetrics;
  if (target == "/report") return Route::kReport;
  if (target == "/healthz" || target == "/") return Route::kHealthz;
  return Route::kNotFound;
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(port) + ": " + why);
  }
  if (::listen(listen_fd_, 16) != 0) {
    const std::string why = std::strerror(errno);
    close_fd(listen_fd_);
    throw std::runtime_error("serve: listen() failed: " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = port;
  }
  thread_ = std::thread([this] { serve_loop(); });
}

void TelemetryServer::stop() {
  if (thread_.joinable()) {
    // shutdown() wakes the blocking accept(); the fd is closed only
    // after the join so the accept thread never races a reused fd.
    ::shutdown(listen_fd_, SHUT_RDWR);
    thread_.join();
  }
  close_fd(listen_fd_);
}

void TelemetryServer::serve_loop() {
  const int fd = listen_fd_;
  while (true) {
    const int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (or broken): exit the thread
    }
    timeval timeout{};
    timeout.tv_usec = kRecvTimeoutMs * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    char buf[1024];  // the request cap: one read of at most 1 KiB
    const ssize_t n = ::recv(client, buf, sizeof buf, 0);
    if (n <= 0) {
      // Timed out, reset, or closed before sending a request.
      ::close(client);
      continue;
    }
    const std::string_view request(buf, static_cast<std::size_t>(n));
    std::string response;
    switch (route_request(request)) {
      case Route::kMetrics:
        response = http_response(
            "200 OK", "text/plain; version=0.0.4; charset=utf-8",
            hub_->metrics_text());
        break;
      case Route::kReport:
        response = http_response("200 OK", "text/markdown; charset=utf-8",
                                 hub_->report_text());
        break;
      case Route::kHealthz:
        response = http_response("200 OK", "text/plain; charset=utf-8",
                                 "ok generation=" +
                                     std::to_string(hub_->generation()) +
                                     "\n");
        break;
      case Route::kNotFound:
        response = http_response("404 Not Found",
                                 "text/plain; charset=utf-8",
                                 "not found: try /metrics /report /healthz\n");
        break;
    }
    send_all(client, response);
    ::close(client);
  }
}

}  // namespace numaio::obs
