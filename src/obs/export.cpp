#include "obs/export.h"

#include <map>
#include <ostream>
#include <set>
#include <string>

#include "obs/obs.h"
#include "obs/stream.h"
#include "obs/text.h"

namespace numaio::obs {

namespace {

/// Simulated ns -> the trace-event format's microsecond timestamps, at
/// nanosecond (3-decimal) resolution. Untimed records render at 0.
void append_ts(std::string& out, double t_sim_ns) {
  text::append_us(out, t_sim_ns >= 0.0 ? t_sim_ns : 0.0);
}

/// Records without a node binding share one dedicated track, numbered
/// past any plausible NUMA node id.
constexpr int kUnboundTid = 4096;

int tid_of(const Event& e) { return e.node_a >= 0 ? e.node_a : kUnboundTid; }

/// Compact end-record stub: everything a begin record needs to render as
/// a complete slice. Kept per span — the "span-skeleton index" — instead
/// of holding end records whole.
struct EndStub {
  double t_sim = -1.0;
  std::string outcome;
  long long bytes = -1;
};

/// Common tail of every emitted trace event: the span/instant payload as
/// importer-visible args.
void append_args(std::string& out, const Event& begin, const EndStub* end) {
  out += "\"args\":{\"record\":";
  text::append_int(out, begin.id);
  out += ",\"outcome\":\"";
  text::json_escape(out, end != nullptr ? end->outcome : begin.outcome);
  out += "\",\"detail\":\"";
  text::json_escape(out, begin.detail);
  const long long bytes =
      end != nullptr && end->bytes > 0 ? end->bytes : begin.bytes;
  out += "\",\"node_a\":";
  text::append_int(out, begin.node_a);
  out += ",\"node_b\":";
  text::append_int(out, begin.node_b);
  out += ",\"dir\":\"";
  out += begin.dir;
  out += "\",\"bytes\":";
  text::append_int(out, bytes);
  out += "}}";
}

/// Pass 1 over the capture: pair each span with its end stub, collect the
/// tracks in use and the set of records cited as causes. Memory is
/// O(spans + cause edges), never O(records).
class IndexPass final : public TraceVisitor {
 public:
  void record(const Event& e) override {
    if (e.kind == 'E') {
      ends[e.span] = {e.t_sim, e.outcome, e.bytes};
      return;
    }
    tids[tid_of(e)] = true;
    if (e.kind == 'I' && e.parent != 0) cited.insert(e.parent);
  }

  std::map<SpanId, EndStub> ends;
  std::map<int, bool> tids;
  std::set<EventId> cited;
};

/// Pass 2: emit events in record order. Cause records precede their
/// consequences (§4a guarantee), so a compact (tid, ts) stub stashed for
/// each cited record is already available when its flow pair renders.
/// Each record's events are rendered into one reused buffer and reach the
/// stream in a single write().
class EmitPass final : public TraceVisitor {
 public:
  EmitPass(const IndexPass& index, std::ostream& out)
      : index_(index), out_(out) {}

  void record(const Event& e) override {
    if (index_.cited.count(e.id) != 0) {
      stubs_[e.id] = {tid_of(e), e.t_sim};
    }
    if (e.kind == 'E') return;  // folded into its begin record
    std::string& b = buf_;
    b.clear();
    if (e.kind == 'B') {
      const auto end_it = index_.ends.find(e.id);
      const EndStub* end =
          end_it != index_.ends.end() ? &end_it->second : nullptr;
      sep();
      if (end != nullptr) {
        const double dur_ns =
            e.t_sim >= 0.0 && end->t_sim >= e.t_sim ? end->t_sim - e.t_sim
                                                    : 0.0;
        b += "{\"ph\":\"X\",\"pid\":0,\"tid\":";
        text::append_int(b, tid_of(e));
        b += ",\"ts\":";
        append_ts(b, e.t_sim);
        b += ",\"dur\":";
        append_ts(b, dur_ns);
      } else {
        // Unclosed span: an open slice the importer extends to the end.
        b += "{\"ph\":\"B\",\"pid\":0,\"tid\":";
        text::append_int(b, tid_of(e));
        b += ",\"ts\":";
        append_ts(b, e.t_sim);
      }
      b += ",\"cat\":\"span\",\"name\":\"";
      text::json_escape(b, e.name);
      b += "\",";
      append_args(b, e, end);
    } else {
      // Instant record.
      sep();
      b += "{\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":";
      text::append_int(b, tid_of(e));
      b += ",\"ts\":";
      append_ts(b, e.t_sim);
      b += ",\"cat\":\"instant\",\"name\":\"";
      text::json_escape(b, e.name);
      b += "\",";
      append_args(b, e, nullptr);
      // Cause edge -> a flow arrow from the causing record to this one.
      // The flow id is the consequence's record id, unique per edge.
      if (e.parent != 0) {
        const auto cause = stubs_.find(e.parent);
        if (cause != stubs_.end()) {
          sep();
          b += "{\"ph\":\"s\",\"pid\":0,\"tid\":";
          text::append_int(b, cause->second.tid);
          b += ",\"ts\":";
          append_ts(b, cause->second.t_sim);
          b += ",\"cat\":\"cause\",\"name\":\"cause\",\"id\":";
          text::append_int(b, e.id);
          b += '}';
          sep();
          b += "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":0,\"tid\":";
          text::append_int(b, tid_of(e));
          b += ",\"ts\":";
          append_ts(b, e.t_sim);
          b += ",\"cat\":\"cause\",\"name\":\"cause\",\"id\":";
          text::append_int(b, e.id);
          b += '}';
        }
      }
    }
    out_.write(b.data(), static_cast<std::streamsize>(b.size()));
  }

 private:
  struct CauseStub {
    int tid = kUnboundTid;
    double t_sim = -1.0;
  };

  void sep() {
    if (!first_) buf_ += ",\n";
    first_ = false;
  }

  const IndexPass& index_;
  std::ostream& out_;
  std::string buf_;
  bool first_ = false;  // the metadata events render before pass 2
  std::map<EventId, CauseStub> stubs_;
};

}  // namespace

void export_chrome_trace(RecordSource& source, std::ostream& out) {
  IndexPass index;
  source.stream(index);

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"numaio\"}}";
  for (const auto& [tid, used] : index.tids) {
    out << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    if (tid == kUnboundTid) out << "unbound";
    else out << "node " << tid;
    out << "\"}}";
  }

  EmitPass emit(index, out);
  source.stream(emit);
  out << "\n]}\n";
}

void export_chrome_trace(const std::vector<Event>& events,
                         std::ostream& out) {
  VectorSource source(events);
  export_chrome_trace(source, out);
}

namespace {

/// Prometheus metric name: "numaio_" + the registry name with every
/// character outside [a-zA-Z0-9_:] mapped to '_'.
std::string prom_name(std::string_view name) {
  std::string out = "numaio_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

/// HELP text from the known_metrics() catalogue; registry names outside
/// the catalogue (tests, future metrics) fall back to the raw name.
std::string help_for(std::string_view name) {
  for (const MetricInfo& m : known_metrics()) {
    if (name == m.name) return m.help;
  }
  return "numaio metric " + std::string(name);
}

void write_header(std::ostream& out, const std::string& family,
                  std::string_view source_name, const char* type) {
  out << "# HELP " << family << ' ';
  // Exposition format: escape backslash and newline in help text.
  for (const char c : help_for(source_name)) {
    if (c == '\\') out << "\\\\";
    else if (c == '\n') out << "\\n";
    else out << c;
  }
  out << "\n# TYPE " << family << ' ' << type << '\n';
}

}  // namespace

void export_prometheus(const MetricsRegistry& metrics, std::ostream& out) {
  // Already an incremental writer: one family at a time straight from
  // the fixed-size registry — no per-sample state is ever retained.
  for (const auto& [name, value] : metrics.counter_values()) {
    const std::string family = prom_name(name) + "_total";
    write_header(out, family, name, "counter");
    out << family << ' ' << text::format_number(value) << '\n';
  }
  for (const auto& [name, value] : metrics.gauge_values()) {
    const std::string family = prom_name(name);
    write_header(out, family, name, "gauge");
    out << family << ' ' << text::format_number(value) << '\n';
  }
  for (const MetricsRegistry::Histogram* h : metrics.histograms_sorted()) {
    const std::string family = prom_name(h->name);
    write_header(out, family, h->name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h->counts.size(); ++i) {
      cumulative += h->counts[i];
      out << family << "_bucket{le=\"";
      if (i < h->bounds.size()) out << text::format_number(h->bounds[i]);
      else out << "+Inf";
      out << "\"} " << cumulative << '\n';
    }
    out << family << "_sum " << text::format_number(h->sum) << '\n';
    out << family << "_count " << h->count << '\n';
  }
}

}  // namespace numaio::obs
