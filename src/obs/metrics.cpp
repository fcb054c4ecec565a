#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.h"
#include "obs/text.h"

namespace numaio::obs {

namespace {

using text::format_number;

template <typename Vec>
typename Vec::value_type* find_by_name(Vec& entries, std::string_view name) {
  for (auto& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

}  // namespace

MetricsRegistry::Id MetricsRegistry::counter(std::string_view name) {
  if (find_by_name(gauges_, name) != nullptr ||
      find_by_name(histograms_, name) != nullptr) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with a different kind");
  }
  for (Id i = 0; i < counters_.size(); ++i) {
    if (counters_[i].name == name) return i;
  }
  counters_.push_back(Scalar{std::string(name), 0.0});
  return counters_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::gauge(std::string_view name) {
  if (find_by_name(counters_, name) != nullptr ||
      find_by_name(histograms_, name) != nullptr) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with a different kind");
  }
  for (Id i = 0; i < gauges_.size(); ++i) {
    if (gauges_[i].name == name) return i;
  }
  gauges_.push_back(Scalar{std::string(name), 0.0});
  return gauges_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::histogram(
    std::string_view name, std::vector<double> upper_bounds) {
  if (upper_bounds.empty() ||
      !std::is_sorted(upper_bounds.begin(), upper_bounds.end()) ||
      std::adjacent_find(upper_bounds.begin(), upper_bounds.end()) !=
          upper_bounds.end()) {
    throw std::invalid_argument("histogram '" + std::string(name) +
                                "' bounds must be strictly ascending");
  }
  if (find_by_name(counters_, name) != nullptr ||
      find_by_name(gauges_, name) != nullptr) {
    throw std::invalid_argument("metric '" + std::string(name) +
                                "' already registered with a different kind");
  }
  for (Id i = 0; i < histograms_.size(); ++i) {
    if (histograms_[i].name == name) {
      if (histograms_[i].bounds != upper_bounds) {
        throw std::invalid_argument("histogram '" + std::string(name) +
                                    "' re-registered with different bounds");
      }
      return i;
    }
  }
  Histogram h;
  h.name.assign(name);
  h.bounds = std::move(upper_bounds);
  h.counts.assign(h.bounds.size() + 1, 0);
  histograms_.push_back(std::move(h));
  return histograms_.size() - 1;
}

void MetricsRegistry::add(Id id, double delta) {
  if (id < counters_.size()) counters_[id].value += delta;
}

void MetricsRegistry::set(Id id, double value) {
  if (id < gauges_.size()) gauges_[id].value = value;
}

void MetricsRegistry::observe(Id id, double value) {
  if (id >= histograms_.size()) return;
  histograms_[id].observe(value);
}

void MetricsRegistry::Histogram::observe(double value) {
  // First bucket whose upper bound is >= value; past-the-end = overflow.
  const auto it = std::lower_bound(bounds.begin(), bounds.end(), value);
  counts[static_cast<std::size_t>(it - bounds.begin())] += 1;
  count += 1;
  sum += value;
}

void MetricsRegistry::merge_histogram(const Histogram& histogram) {
  if (histogram.bounds.empty()) return;
  const Id id = this->histogram(histogram.name, histogram.bounds);
  Histogram& h = histograms_[id];
  const std::size_t n = std::min(h.counts.size(), histogram.counts.size());
  for (std::size_t i = 0; i < n; ++i) {
    h.counts[i] += histogram.counts[i];
  }
  h.count += histogram.count;
  h.sum += histogram.sum;
}

double MetricsRegistry::value(std::string_view name) const {
  for (const Scalar& c : counters_) {
    if (c.name == name) return c.value;
  }
  for (const Scalar& g : gauges_) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

const MetricsRegistry::Histogram* MetricsRegistry::find_histogram(
    std::string_view name) const {
  for (const Histogram& h : histograms_) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double MetricsRegistry::Histogram::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double in_bucket = static_cast<double>(counts[i]);
    if (cum + in_bucket < rank || in_bucket == 0.0) {
      cum += in_bucket;
      continue;
    }
    if (i >= bounds.size()) return bounds.back();  // +inf overflow bucket
    const double hi = bounds[i];
    const double lo = i == 0 ? std::min(0.0, hi) : bounds[i - 1];
    return lo + (hi - lo) * ((rank - cum) / in_bucket);
  }
  return bounds.back();
}

std::vector<MetricsRegistry::NamedValue> MetricsRegistry::counter_values()
    const {
  std::vector<NamedValue> out;
  for (const Scalar& c : counters_) out.push_back({c.name, c.value});
  std::sort(out.begin(), out.end(),
            [](const NamedValue& a, const NamedValue& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<MetricsRegistry::NamedValue> MetricsRegistry::gauge_values()
    const {
  std::vector<NamedValue> out;
  for (const Scalar& g : gauges_) out.push_back({g.name, g.value});
  std::sort(out.begin(), out.end(),
            [](const NamedValue& a, const NamedValue& b) {
              return a.name < b.name;
            });
  return out;
}

std::vector<const MetricsRegistry::Histogram*>
MetricsRegistry::histograms_sorted() const {
  std::vector<const Histogram*> out;
  for (const Histogram& h : histograms_) out.push_back(&h);
  std::sort(out.begin(), out.end(),
            [](const Histogram* a, const Histogram* b) {
              return a->name < b->name;
            });
  return out;
}

std::string MetricsRegistry::to_json() const {
  // Sorted maps make the snapshot independent of registration order, so
  // same-seed runs diff clean.
  std::map<std::string, double> counters;
  for (const Scalar& c : counters_) counters[c.name] = c.value;
  std::map<std::string, double> gauges;
  for (const Scalar& g : gauges_) gauges[g.name] = g.value;
  std::map<std::string, const Histogram*> histograms;
  for (const Histogram& h : histograms_) histograms[h.name] = &h;

  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "\n" : ",\n") << "    " << json::quote(name) << ": "
        << json::number(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out << (first ? "\n" : ",\n") << "    " << json::quote(name) << ": "
        << json::number(value);
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out << (first ? "\n" : ",\n") << "    " << json::quote(name)
        << ": {\"bounds\": [";
    for (std::size_t i = 0; i < h->bounds.size(); ++i) {
      out << (i == 0 ? "" : ", ") << json::number(h->bounds[i]);
    }
    out << "], \"counts\": [";
    for (std::size_t i = 0; i < h->counts.size(); ++i) {
      out << (i == 0 ? "" : ", ") << h->counts[i];
    }
    out << "], \"count\": " << h->count
        << ", \"sum\": " << json::number(h->sum) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string MetricsRegistry::summary() const {
  std::map<std::string, double> counters;
  for (const Scalar& c : counters_) counters[c.name] = c.value;
  std::map<std::string, double> gauges;
  for (const Scalar& g : gauges_) gauges[g.name] = g.value;
  std::map<std::string, const Histogram*> histograms;
  for (const Histogram& h : histograms_) histograms[h.name] = &h;

  std::ostringstream out;
  if (!counters.empty()) {
    out << "counters:\n";
    for (const auto& [name, value] : counters) {
      out << "  " << name << " = " << format_number(value) << "\n";
    }
  }
  if (!gauges.empty()) {
    out << "gauges:\n";
    for (const auto& [name, value] : gauges) {
      out << "  " << name << " = " << format_number(value) << "\n";
    }
  }
  if (!histograms.empty()) {
    out << "histograms:\n";
    for (const auto& [name, h] : histograms) {
      out << "  " << name << " (count " << h->count << ", sum "
          << format_number(h->sum);
      if (h->count > 0) {
        out << ", mean "
            << format_number(h->sum / static_cast<double>(h->count));
        out << ", p50 " << format_number(h->quantile(0.50)) << ", p95 "
            << format_number(h->quantile(0.95)) << ", p99 "
            << format_number(h->quantile(0.99)) << ", p99.9 "
            << format_number(h->quantile(0.999));
      }
      out << ")\n";
      for (std::size_t i = 0; i < h->counts.size(); ++i) {
        out << "    ";
        if (i < h->bounds.size()) {
          out << "<= " << format_number(h->bounds[i]);
        } else {
          out << "> " << format_number(h->bounds.back());
        }
        out << ": " << h->counts[i] << "\n";
      }
    }
  }
  if (counters.empty() && gauges.empty() && histograms.empty()) {
    out << "(no metrics recorded)\n";
  }
  return out.str();
}

namespace {

/// The number `v` holds; `name` is the metric it belongs to.
double number_of(const json::Value& v, const std::string& name) {
  if (v.kind != json::Value::Kind::kNumber) {
    throw std::invalid_argument("metrics JSON: metric '" + name +
                                "' holds a non-number");
  }
  return v.num;
}

/// The numbers of array `v`; `name` is the histogram it belongs to.
std::vector<double> numbers_of(const json::Value& v,
                               const std::string& name) {
  if (v.kind != json::Value::Kind::kArray) {
    throw std::invalid_argument("metrics JSON: histogram '" + name +
                                "' holds a non-array bounds or counts");
  }
  std::vector<double> out;
  out.reserve(v.items.size());
  for (const json::Value& item : v.items) out.push_back(number_of(item, name));
  return out;
}

}  // namespace

MetricsRegistry parse_metrics_json(const std::string& text) {
  const json::Value root = json::parse(text);
  if (root.kind != json::Value::Kind::kObject) {
    throw std::invalid_argument("metrics JSON: document is not an object");
  }
  MetricsRegistry registry;
  for (const auto& [section, entries] : root.fields) {
    if (section != "counters" && section != "gauges" &&
        section != "histograms") {
      throw std::invalid_argument("metrics JSON: unknown section '" +
                                  section + "'");
    }
    if (entries.kind != json::Value::Kind::kObject) {
      throw std::invalid_argument("metrics JSON: section '" + section +
                                  "' is not an object");
    }
    for (const auto& [name, value] : entries.fields) {
      if (section == "counters") {
        registry.add(registry.counter(name), number_of(value, name));
        continue;
      }
      if (section == "gauges") {
        registry.set(registry.gauge(name), number_of(value, name));
        continue;
      }
      if (value.kind != json::Value::Kind::kObject) {
        throw std::invalid_argument("metrics JSON: histogram '" + name +
                                    "' is not an object");
      }
      std::vector<double> bounds;
      std::vector<double> counts;
      double sum = 0.0;
      for (const auto& [field, v] : value.fields) {
        if (field == "bounds") {
          bounds = numbers_of(v, name);
        } else if (field == "counts") {
          counts = numbers_of(v, name);
        } else if (field == "count") {
          number_of(v, name);  // redundant with the counts array
        } else if (field == "sum") {
          sum = number_of(v, name);
        } else {
          throw std::invalid_argument(
              "metrics JSON: unknown histogram field '" + field + "'");
        }
      }
      if (counts.size() != bounds.size() + 1) {
        throw std::invalid_argument("metrics JSON: histogram '" + name +
                                    "' counts/bounds size mismatch");
      }
      // Registering applies the rules every histogram obeys (non-empty,
      // strictly ascending bounds; a name no counter or gauge holds).
      MetricsRegistry::Histogram& h =
          registry.histograms_[registry.histogram(name, std::move(bounds))];
      h.sum += sum;
      for (std::size_t i = 0; i < counts.size(); ++i) {
        // Only a whole number in [0, 2^64) converts to uint64_t exactly;
        // casting nan or 1e300 is undefined and 1.5 would truncate.
        constexpr double kTwo64 = 18446744073709551616.0;
        const double c = counts[i];
        if (!(c >= 0.0 && c < kTwo64 && c == std::floor(c))) {
          throw std::invalid_argument(
              "metrics JSON: histogram '" + name + "' has bucket count " +
              format_number(c) + ", not a whole number in [0, 2^64)");
        }
        h.counts[i] += static_cast<std::uint64_t>(c);
        h.count += static_cast<std::uint64_t>(c);
      }
    }
  }
  return registry;
}

}  // namespace numaio::obs
