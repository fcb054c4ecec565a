#include "model/perf_report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "obs/json.h"
#include "simcore/units.h"

namespace numaio::model {

namespace {

namespace json = obs::json;

const char* dir_name(Direction dir) {
  return dir == Direction::kDeviceWrite ? "write" : "read";
}

std::string fixed(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string ms(double ns) { return fixed(ns / 1e6, 3); }

std::string gib(long long bytes) {
  return fixed(static_cast<double>(bytes) / static_cast<double>(sim::kGiB),
               2);
}

/// "{0 1} {4 5 6 7} {2 3}" — the serialized-model class syntax.
std::string classes_text(const Classification& c) {
  std::string out;
  for (const auto& members : c.classes) {
    if (!out.empty()) out += ' ';
    out += '{';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != 0) out += ' ';
      out += std::to_string(members[i]);
    }
    out += '}';
  }
  return out;
}

std::string class_avgs_text(const Classification& c) {
  std::string out;
  for (std::size_t i = 0; i < c.class_avg.size(); ++i) {
    if (i != 0) out += " / ";
    out += fixed(c.class_avg[i], 1);
  }
  return out;
}

}  // namespace

RunReport build_run_report(std::string command, const HostModel* model,
                           obs::RecordSource& source,
                           const obs::MetricsRegistry* metrics) {
  RunReport report;
  report.command = std::move(command);
  if (model != nullptr) {
    report.has_model = true;
    report.model = *model;
  }
  report.analysis = obs::analyze_stream(source);
  // One more streaming pass for §6: the scheduler-latency profile.
  report.sched = obs::profile_scheduler(source);
  if (metrics != nullptr) {
    report.counters = metrics->counter_values();
    // Gauges ride in the same table; re-sort so the merged list stays
    // name-ordered for the renderers and the diff.
    const auto gauges = metrics->gauge_values();
    report.counters.insert(report.counters.end(), gauges.begin(),
                           gauges.end());
    std::sort(report.counters.begin(), report.counters.end(),
              [](const obs::MetricsRegistry::NamedValue& a,
                 const obs::MetricsRegistry::NamedValue& b) {
                return a.name < b.name;
              });
  }
  return report;
}

RunReport build_run_report(std::string command, const HostModel* model,
                           const std::vector<obs::Event>& events,
                           const obs::MetricsRegistry* metrics) {
  obs::VectorSource source(events);
  return build_run_report(std::move(command), model, source, metrics);
}

std::string render_markdown(const RunReport& report,
                            const RunReportOptions& options) {
  const obs::TraceAnalysis& a = report.analysis;
  std::ostringstream out;
  out << "# numaio run report\n\n";
  out << "- command: `" << report.command << "`\n";
  out << "- trace records: " << a.num_records;
  if (a.last_ns >= 0.0) {
    out << ", simulated window: " << ms(a.first_ns) << " – " << ms(a.last_ns)
        << " ms";
  }
  out << "\n- critical path: " << ms(a.critical_path_ns)
      << " ms end-to-end over " << a.critical_path.size() << " steps\n";

  if (report.has_model) {
    out << "\n## Performance classes (" << report.model.host_name << ", "
        << report.model.num_nodes << " nodes)\n\n";
    out << "| target | dir | classes | class avg Gbps |\n";
    out << "|---|---|---|---|\n";
    for (NodeId t = 0; t < report.model.num_nodes; ++t) {
      for (const Direction dir :
           {Direction::kDeviceWrite, Direction::kDeviceRead}) {
        const Classification& c = report.model.classes_for(t, dir);
        out << "| " << t << " | " << dir_name(dir) << " | "
            << classes_text(c) << " | " << class_avgs_text(c) << " |\n";
      }
    }
  }

  if (!a.span_kinds.empty()) {
    out << "\n## Span summary\n\n";
    out << "| span | count | total ms | max ms | GiB | outcomes |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const obs::SpanKindStats& k : a.span_kinds) {
      out << "| " << k.name << " | " << k.count << " | " << ms(k.total_ns)
          << " | " << ms(k.max_ns) << " | " << gib(k.bytes) << " | ";
      for (std::size_t i = 0; i < k.outcomes.size(); ++i) {
        out << (i == 0 ? "" : ", ") << k.outcomes[i].first << " × "
            << k.outcomes[i].second;
      }
      out << " |\n";
    }
  }

  if (!a.critical_path.empty()) {
    out << "\n## Critical path\n\n";
    out << "| # | record | name | self ms | outcome | detail |\n";
    out << "|---|---|---|---|---|---|\n";
    int step_no = 0;
    for (const obs::CriticalPathStep& step : a.critical_path) {
      if (++step_no > kReportPathSteps) {
        out << "| … | | ("
            << static_cast<int>(a.critical_path.size()) - step_no + 1
            << " more steps) | | | |\n";
        break;
      }
      out << "| " << step_no << " | id " << step.id << " | " << step.name
          << " | " << ms(step.self_ns) << " | " << step.outcome << " | "
          << step.detail << " |\n";
    }
  }

  if (!a.contention.empty()) {
    out << "\n## Contention (top " << options.top_contended
        << " node pairs by attributed stall)\n\n";
    out << "| pair | spans | GiB | busy ms | stall ms | stall % |\n";
    out << "|---|---|---|---|---|---|\n";
    int rows = 0;
    for (const obs::ContentionCell& cell : a.contention) {
      if (++rows > options.top_contended) break;
      out << "| " << cell.node_a << " → " << cell.node_b << " | "
          << cell.spans << " | " << gib(cell.bytes) << " | "
          << ms(cell.busy_ns) << " | " << ms(cell.stall_ns) << " | "
          << fixed(100.0 * cell.stall_frac(), 1) << " |\n";
    }
  }

  out << "\n## Faults & retries\n\n";
  out << "- transitions: " << a.faults.transitions
      << ", retries: " << a.faults.retries << ", aborts: " << a.faults.aborts
      << ", records caused by faults: " << a.faults.caused << "\n";
  if (!a.faults.by_fault.empty()) {
    out << "\n| fault transition | consequences |\n|---|---|\n";
    for (const auto& [label, count] : a.faults.by_fault) {
      out << "| " << label << " | " << count << " |\n";
    }
  }

  if (!report.sched.empty()) {
    out << "\n## Scheduler latency\n\n";
    out << "| metric | count | p50 ms | p95 ms | p99 ms | p99.9 ms |\n";
    out << "|---|---|---|---|---|---|\n";
    for (const obs::MetricsRegistry::Histogram* h :
         {&report.sched.queue_wait, &report.sched.dispatch,
          &report.sched.migration}) {
      out << "| " << h->name << " | " << h->count << " | "
          << fixed(h->quantile(0.50), 3) << " | "
          << fixed(h->quantile(0.95), 3) << " | "
          << fixed(h->quantile(0.99), 3) << " | "
          << fixed(h->quantile(0.999), 3) << " |\n";
    }
  }

  if (!report.counters.empty()) {
    out << "\n## Counters\n\n| counter | value |\n|---|---|\n";
    for (const auto& c : report.counters) {
      out << "| " << c.name << " | " << json::number(c.value) << " |\n";
    }
  }
  return out.str();
}

std::string render_json(const RunReport& report,
                        const RunReportOptions& options) {
  const obs::TraceAnalysis& a = report.analysis;
  std::ostringstream out;
  out << "{\n  \"command\": " << json::quote(report.command);
  out << ",\n  \"records\": " << a.num_records;
  out << ",\n  \"sim_first_ns\": " << json::number(a.first_ns);
  out << ",\n  \"sim_last_ns\": " << json::number(a.last_ns);
  out << ",\n  \"critical_path_ns\": " << json::number(a.critical_path_ns);

  out << ",\n  \"classes\": [";
  if (report.has_model) {
    bool first = true;
    for (NodeId t = 0; t < report.model.num_nodes; ++t) {
      for (const Direction dir :
           {Direction::kDeviceWrite, Direction::kDeviceRead}) {
        const Classification& c = report.model.classes_for(t, dir);
        out << (first ? "\n" : ",\n") << "    {\"target\": " << t
            << ", \"dir\": \"" << dir_name(dir) << "\", \"classes\": [";
        for (std::size_t i = 0; i < c.classes.size(); ++i) {
          out << (i == 0 ? "[" : ", [");
          for (std::size_t j = 0; j < c.classes[i].size(); ++j) {
            out << (j == 0 ? "" : ", ") << c.classes[i][j];
          }
          out << "]";
        }
        out << "], \"avg_gbps\": [";
        for (std::size_t i = 0; i < c.class_avg.size(); ++i) {
          out << (i == 0 ? "" : ", ") << json::number(c.class_avg[i]);
        }
        out << "]}";
        first = false;
      }
    }
    if (!first) out << "\n  ";
  }
  out << "]";

  out << ",\n  \"span_kinds\": [";
  for (std::size_t i = 0; i < a.span_kinds.size(); ++i) {
    const obs::SpanKindStats& k = a.span_kinds[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"name\": " << json::quote(k.name)
        << ", \"count\": " << k.count << ", \"unclosed\": " << k.unclosed
        << ", \"total_ns\": " << json::number(k.total_ns)
        << ", \"max_ns\": " << json::number(k.max_ns)
        << ", \"bytes\": " << k.bytes << ", \"outcomes\": {";
    for (std::size_t j = 0; j < k.outcomes.size(); ++j) {
      out << (j == 0 ? "" : ", ") << json::quote(k.outcomes[j].first) << ": "
          << k.outcomes[j].second;
    }
    out << "}}";
  }
  out << (a.span_kinds.empty() ? "]" : "\n  ]");

  out << ",\n  \"critical_path\": [";
  const std::size_t steps = std::min(
      a.critical_path.size(), static_cast<std::size_t>(kReportPathSteps));
  for (std::size_t i = 0; i < steps; ++i) {
    const obs::CriticalPathStep& s = a.critical_path[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << s.id
        << ", \"name\": " << json::quote(s.name)
        << ", \"self_ns\": " << json::number(s.self_ns)
        << ", \"start_ns\": " << json::number(s.start_ns)
        << ", \"end_ns\": " << json::number(s.end_ns)
        << ", \"outcome\": " << json::quote(s.outcome)
        << ", \"detail\": " << json::quote(s.detail) << "}";
  }
  out << (steps == 0 ? "]" : "\n  ]");

  out << ",\n  \"contention\": [";
  const std::size_t cells =
      std::min(a.contention.size(),
               static_cast<std::size_t>(options.top_contended));
  for (std::size_t i = 0; i < cells; ++i) {
    const obs::ContentionCell& c = a.contention[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"node_a\": " << c.node_a
        << ", \"node_b\": " << c.node_b << ", \"spans\": " << c.spans
        << ", \"bytes\": " << c.bytes
        << ", \"busy_ns\": " << json::number(c.busy_ns)
        << ", \"stall_ns\": " << json::number(c.stall_ns)
        << ", \"stall_frac\": " << json::number(c.stall_frac()) << "}";
  }
  out << (cells == 0 ? "]" : "\n  ]");

  out << ",\n  \"faults\": {\"transitions\": " << a.faults.transitions
      << ", \"retries\": " << a.faults.retries << ", \"aborts\": "
      << a.faults.aborts << ", \"caused\": " << a.faults.caused
      << ", \"by_fault\": [";
  for (std::size_t i = 0; i < a.faults.by_fault.size(); ++i) {
    out << (i == 0 ? "" : ", ")
        << "{\"fault\": " << json::quote(a.faults.by_fault[i].first)
        << ", \"caused\": " << a.faults.by_fault[i].second << "}";
  }
  out << "]}";

  out << ",\n  \"sched_latency\": [";
  if (!report.sched.queue_wait.name.empty()) {
    bool first = true;
    for (const obs::MetricsRegistry::Histogram* h :
         {&report.sched.queue_wait, &report.sched.dispatch,
          &report.sched.migration}) {
      out << (first ? "\n" : ",\n") << "    {\"name\": " << json::quote(h->name)
          << ", \"count\": " << h->count << ", \"p50_ms\": "
          << json::number(h->quantile(0.50)) << ", \"p95_ms\": "
          << json::number(h->quantile(0.95)) << ", \"p99_ms\": "
          << json::number(h->quantile(0.99)) << ", \"p999_ms\": "
          << json::number(h->quantile(0.999)) << "}";
      first = false;
    }
    out << "\n  ]";
  } else {
    out << "]";
  }

  out << ",\n  \"counters\": {";
  for (std::size_t i = 0; i < report.counters.size(); ++i) {
    out << (i == 0 ? "" : ", ") << json::quote(report.counters[i].name)
        << ": " << json::number(report.counters[i].value);
  }
  out << "}\n}\n";
  return out.str();
}

namespace {

using Kind = json::Value::Kind;

const json::Value& require(const json::Value& obj, std::string_view key,
                           Kind kind, const char* what) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || v->kind != kind) {
    throw std::invalid_argument("report json: missing or mistyped field '" +
                                std::string(key) + "' (" + what + ")");
  }
  return *v;
}

/// An integer field's value: a whole number that fits T. Anything else
/// (inf, 1e300, 2.5) is a parse error, not an undefined cast.
template <class T>
T whole(const json::Value& v, std::string_view key) {
  const double lo = static_cast<double>(std::numeric_limits<T>::min());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (v.kind != Kind::kNumber || !(v.num >= lo && v.num < hi) ||
      v.num != std::trunc(v.num)) {
    throw std::invalid_argument("report json: field '" + std::string(key) +
                                "' is not a whole number in its range");
  }
  return static_cast<T>(v.num);
}

template <class T>
T require_whole(const json::Value& obj, std::string_view key,
                const char* what) {
  return whole<T>(require(obj, key, Kind::kNumber, what), key);
}

}  // namespace

ReportSummary parse_report_json(const std::string& text) {
  const json::Value root = json::parse(text);
  if (root.kind != Kind::kObject) {
    throw std::invalid_argument("report json: document is not an object");
  }
  ReportSummary s;
  s.command =
      require(root, "command", Kind::kString, "provenance").str;
  s.records = require_whole<int>(root, "records", "record count");
  s.critical_path_ns =
      require(root, "critical_path_ns", Kind::kNumber, "path span")
          .num;

  for (const json::Value& row :
       require(root, "classes", Kind::kArray, "class table")
           .items) {
    ReportSummary::ClassRow out;
    out.target = require_whole<int>(row, "target", "class row");
    out.dir = require(row, "dir", Kind::kString, "class row").str;
    for (const json::Value& cls :
         require(row, "classes", Kind::kArray, "class members")
             .items) {
      if (!out.classes.empty()) out.classes += ' ';
      out.classes += '{';
      for (std::size_t i = 0; i < cls.items.size(); ++i) {
        if (i != 0) out.classes += ' ';
        out.classes += std::to_string(whole<int>(cls.items[i], "classes"));
      }
      out.classes += '}';
    }
    const json::Value& avgs =
        require(row, "avg_gbps", Kind::kArray, "class averages");
    for (std::size_t i = 0; i < avgs.items.size(); ++i) {
      if (i != 0) out.avgs += " / ";
      out.avgs += fixed(avgs.items[i].num, 1);
    }
    s.classes.push_back(std::move(out));
  }

  for (const json::Value& row :
       require(root, "critical_path", Kind::kArray, "path")
           .items) {
    ReportSummary::PathStep step;
    step.id = require_whole<obs::EventId>(row, "id", "path step");
    step.name = require(row, "name", Kind::kString, "path step")
                    .str;
    step.self_ns =
        require(row, "self_ns", Kind::kNumber, "path step").num;
    step.outcome =
        require(row, "outcome", Kind::kString, "path step").str;
    s.critical_path.push_back(std::move(step));
  }

  for (const json::Value& row :
       require(root, "span_kinds", Kind::kArray, "span table")
           .items) {
    ReportSummary::SpanRow span;
    span.name =
        require(row, "name", Kind::kString, "span kind").str;
    span.count = require_whole<int>(row, "count", "span kind");
    span.total_ns =
        require(row, "total_ns", Kind::kNumber, "span kind").num;
    s.span_kinds.push_back(std::move(span));
  }

  const json::Value& faults =
      require(root, "faults", Kind::kObject, "fault audit");
  s.fault_transitions = require_whole<int>(faults, "transitions", "faults");
  s.retries = require_whole<int>(faults, "retries", "faults");
  s.aborts = require_whole<int>(faults, "aborts", "faults");
  s.caused = require_whole<int>(faults, "caused", "faults");

  // §6 is newer than the format: absent (pre-profiling reports) parses
  // as an empty row set so old baselines keep diffing.
  const json::Value* sched = root.find("sched_latency");
  if (sched != nullptr && sched->kind == Kind::kArray) {
    for (const json::Value& row : sched->items) {
      ReportSummary::SchedRow r;
      r.name =
          require(row, "name", Kind::kString, "sched row").str;
      r.count = require_whole<int>(row, "count", "sched row");
      r.p50_ms =
          require(row, "p50_ms", Kind::kNumber, "sched row").num;
      r.p95_ms =
          require(row, "p95_ms", Kind::kNumber, "sched row").num;
      r.p99_ms =
          require(row, "p99_ms", Kind::kNumber, "sched row").num;
      r.p999_ms =
          require(row, "p999_ms", Kind::kNumber, "sched row").num;
      s.sched_latency.push_back(std::move(r));
    }
  }
  return s;
}

namespace {

/// "+1.234" / "-1.234" / "+0.000" — signed fixed-point delta text.
std::string signed_ms(double delta_ns) {
  std::string out(delta_ns < 0 ? "-" : "+");
  out += ms(delta_ns < 0 ? -delta_ns : delta_ns);
  return out;
}

std::string pct_change(double before, double after) {
  if (before <= 0.0) return "n/a";
  std::string out(after >= before ? "+" : "");
  out += fixed(100.0 * (after - before) / before, 1);
  out += '%';
  return out;
}

std::string path_step_text(const ReportSummary::PathStep& s) {
  std::string out = "id " + std::to_string(s.id) + " " + s.name + " (" +
                    ms(s.self_ns) + " ms";
  if (!s.outcome.empty()) out += ", " + s.outcome;
  return out + ")";
}

}  // namespace

std::string diff_reports(const ReportSummary& before,
                         const ReportSummary& after) {
  std::ostringstream out;
  out << "# numaio report diff\n\n";
  out << "- before: `" << before.command << "` (" << before.records
      << " records)\n";
  out << "- after:  `" << after.command << "` (" << after.records
      << " records)\n";
  out << "- critical path: " << ms(before.critical_path_ns) << " ms -> "
      << ms(after.critical_path_ns) << " ms ("
      << signed_ms(after.critical_path_ns - before.critical_path_ns)
      << " ms, "
      << pct_change(before.critical_path_ns, after.critical_path_ns)
      << ")\n";

  // Class structure: the Tables IV/V before/after story. Rows pair up by
  // (target, dir); a structure change is the headline signal (a NUMA hop
  // got re-classed), an average drift alone is secondary.
  out << "\n## Class structure\n\n";
  if (before.classes.empty() && after.classes.empty()) {
    out << "- no class tables on either side (trace-only reports)\n";
  } else if (before.classes.empty() || after.classes.empty()) {
    out << "- class table present only "
        << (before.classes.empty() ? "after" : "before")
        << " — runs are not directly comparable\n";
  } else {
    int changed = 0;
    for (const ReportSummary::ClassRow& b : before.classes) {
      const ReportSummary::ClassRow* a = nullptr;
      for (const ReportSummary::ClassRow& row : after.classes) {
        if (row.target == b.target && row.dir == b.dir) {
          a = &row;
          break;
        }
      }
      if (a == nullptr) {
        out << "- target " << b.target << ' ' << b.dir
            << ": dropped (was " << b.classes << ")\n";
        ++changed;
        continue;
      }
      if (a->classes != b.classes) {
        out << "- target " << b.target << ' ' << b.dir << ": " << b.classes
            << " -> " << a->classes << " (avg " << b.avgs << " -> "
            << a->avgs << " Gbps)\n";
        ++changed;
      } else if (a->avgs != b.avgs) {
        out << "- target " << b.target << ' ' << b.dir
            << ": structure unchanged " << b.classes << ", avg " << b.avgs
            << " -> " << a->avgs << " Gbps\n";
        ++changed;
      }
    }
    for (const ReportSummary::ClassRow& a : after.classes) {
      bool known = false;
      for (const ReportSummary::ClassRow& b : before.classes) {
        if (b.target == a.target && b.dir == a.dir) {
          known = true;
          break;
        }
      }
      if (!known) {
        out << "- target " << a.target << ' ' << a.dir << ": added ("
            << a.classes << ")\n";
        ++changed;
      }
    }
    if (changed == 0) {
      out << "- unchanged across " << before.classes.size()
          << " (target, dir) rows\n";
    }
  }

  out << "\n## Critical path\n\n";
  out << "- steps: " << before.critical_path.size() << " -> "
      << after.critical_path.size() << "\n";
  const std::size_t rows =
      std::max(before.critical_path.size(), after.critical_path.size());
  bool path_same = before.critical_path.size() == after.critical_path.size();
  for (std::size_t i = 0; i < rows; ++i) {
    const bool have_b = i < before.critical_path.size();
    const bool have_a = i < after.critical_path.size();
    if (have_b && have_a) {
      const ReportSummary::PathStep& b = before.critical_path[i];
      const ReportSummary::PathStep& a = after.critical_path[i];
      if (b.name == a.name && b.outcome == a.outcome &&
          b.self_ns == a.self_ns) {
        continue;  // identical step: elide, keep the diff about deltas
      }
      path_same = false;
      out << "- step " << i + 1 << ": " << path_step_text(b) << " -> "
          << path_step_text(a) << "\n";
    } else if (have_b) {
      out << "- step " << i + 1 << ": " << path_step_text(
          before.critical_path[i]) << " -> (gone)\n";
    } else {
      out << "- step " << i + 1 << ": (new) -> "
          << path_step_text(after.critical_path[i]) << "\n";
    }
  }
  if (path_same && !before.critical_path.empty()) {
    out << "- every step matches by name, outcome and self time\n";
  }

  out << "\n## Span kinds\n\n";
  int span_changes = 0;
  for (const ReportSummary::SpanRow& b : before.span_kinds) {
    const ReportSummary::SpanRow* a = nullptr;
    for (const ReportSummary::SpanRow& row : after.span_kinds) {
      if (row.name == b.name) {
        a = &row;
        break;
      }
    }
    if (a == nullptr) {
      out << "- " << b.name << ": gone (was " << b.count << " spans, "
          << ms(b.total_ns) << " ms)\n";
      ++span_changes;
    } else if (a->count != b.count || a->total_ns != b.total_ns) {
      out << "- " << b.name << ": count " << b.count << " -> " << a->count
          << ", total " << ms(b.total_ns) << " -> " << ms(a->total_ns)
          << " ms (" << signed_ms(a->total_ns - b.total_ns) << " ms)\n";
      ++span_changes;
    }
  }
  for (const ReportSummary::SpanRow& a : after.span_kinds) {
    bool known = false;
    for (const ReportSummary::SpanRow& b : before.span_kinds) {
      if (b.name == a.name) {
        known = true;
        break;
      }
    }
    if (!known) {
      out << "- " << a.name << ": new (" << a.count << " spans, "
          << ms(a.total_ns) << " ms)\n";
      ++span_changes;
    }
  }
  if (span_changes == 0) {
    out << "- unchanged across " << before.span_kinds.size()
        << " span kinds\n";
  }

  out << "\n## Faults & retries\n\n";
  out << "- transitions: " << before.fault_transitions << " -> "
      << after.fault_transitions << ", retries: " << before.retries
      << " -> " << after.retries << ", aborts: " << before.aborts << " -> "
      << after.aborts << ", caused: " << before.caused << " -> "
      << after.caused << "\n";

  out << "\n## Scheduler latency\n\n";
  if (before.sched_latency.empty() && after.sched_latency.empty()) {
    out << "- no scheduler-latency rows on either side\n";
  } else {
    int sched_changes = 0;
    for (const ReportSummary::SchedRow& b : before.sched_latency) {
      const ReportSummary::SchedRow* a = nullptr;
      for (const ReportSummary::SchedRow& row : after.sched_latency) {
        if (row.name == b.name) {
          a = &row;
          break;
        }
      }
      if (a == nullptr) {
        out << "- " << b.name << ": gone (was " << b.count << " samples)\n";
        ++sched_changes;
      } else if (a->count != b.count || a->p50_ms != b.p50_ms ||
                 a->p99_ms != b.p99_ms || a->p999_ms != b.p999_ms) {
        out << "- " << b.name << ": count " << b.count << " -> " << a->count
            << ", p50 " << fixed(b.p50_ms, 3) << " -> " << fixed(a->p50_ms, 3)
            << " ms, p99 " << fixed(b.p99_ms, 3) << " -> "
            << fixed(a->p99_ms, 3) << " ms, p99.9 " << fixed(b.p999_ms, 3)
            << " -> " << fixed(a->p999_ms, 3) << " ms\n";
        ++sched_changes;
      }
    }
    for (const ReportSummary::SchedRow& a : after.sched_latency) {
      bool known = false;
      for (const ReportSummary::SchedRow& b : before.sched_latency) {
        if (b.name == a.name) {
          known = true;
          break;
        }
      }
      if (!known) {
        out << "- " << a.name << ": new (" << a.count << " samples, p99.9 "
            << fixed(a.p999_ms, 3) << " ms)\n";
        ++sched_changes;
      }
    }
    if (sched_changes == 0) {
      out << "- unchanged across "
          << before.sched_latency.size() << " metrics\n";
    }
  }
  return out.str();
}

}  // namespace numaio::model
