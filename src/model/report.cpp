#include "model/report.h"

#include <cassert>
#include <iomanip>
#include <sstream>

namespace numaio::model {

namespace {
constexpr int kColWidth = 9;

void put_value(std::ostringstream& out, double v) {
  out << std::right << std::setw(kColWidth) << std::fixed
      << std::setprecision(2) << v;
}
}  // namespace

std::string format_matrix(const mem::BandwidthMatrix& m,
                          const std::string& row_prefix,
                          const std::string& col_prefix) {
  std::ostringstream out;
  const int n = m.num_nodes();
  out << std::left << std::setw(kColWidth) << "";
  for (int c = 0; c < n; ++c) {
    out << std::right << std::setw(kColWidth)
        << (col_prefix + std::to_string(c));
  }
  out << '\n';
  for (int r = 0; r < n; ++r) {
    out << std::left << std::setw(kColWidth)
        << (row_prefix + std::to_string(r));
    for (int c = 0; c < n; ++c) put_value(out, m.at(r, c));
    out << '\n';
  }
  return out.str();
}

std::string format_series(const std::string& title,
                          std::span<const sim::Gbps> values,
                          const std::string& label_prefix) {
  std::ostringstream out;
  out << title << '\n';
  out << std::left << std::setw(kColWidth) << "";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out << std::right << std::setw(kColWidth)
        << (label_prefix + std::to_string(i));
  }
  out << '\n' << std::left << std::setw(kColWidth) << "Gbps";
  for (const double v : values) put_value(out, v);
  out << '\n';
  return out.str();
}

std::string format_class_table(const Classification& classes,
                               const std::string& model_label,
                               std::span<const sim::Gbps> model_values,
                               std::span<const MeasuredRow> rows) {
  std::ostringstream out;
  const int k = classes.num_classes();

  out << std::left << std::setw(18) << "Operation";
  for (int c = 0; c < k; ++c) {
    out << std::right << std::setw(16) << ("Class " + std::to_string(c + 1));
  }
  out << '\n';
  out << std::left << std::setw(18) << "Node IDs";
  for (int c = 0; c < k; ++c) {
    std::string ids;
    for (NodeId v : classes.classes[static_cast<std::size_t>(c)]) {
      if (!ids.empty()) ids += ',';
      ids += std::to_string(v);
    }
    out << std::right << std::setw(16) << ids;
  }
  out << '\n';

  auto emit = [&](const std::string& label,
                  std::span<const sim::Gbps> per_node) {
    const Classification s = summarize_classes(classes.classes, per_node);
    out << std::left << std::setw(18) << (label + " range");
    for (int c = 0; c < k; ++c) {
      std::ostringstream cell;
      cell << std::fixed << std::setprecision(1)
           << s.class_range[static_cast<std::size_t>(c)].first << "-"
           << s.class_range[static_cast<std::size_t>(c)].second;
      out << std::right << std::setw(16) << cell.str();
    }
    out << '\n' << std::left << std::setw(18) << (label + " avg");
    for (int c = 0; c < k; ++c) {
      std::ostringstream cell;
      cell << std::fixed << std::setprecision(1)
           << s.class_avg[static_cast<std::size_t>(c)];
      out << std::right << std::setw(16) << cell.str();
    }
    out << '\n';
  };

  emit(model_label, model_values);
  for (const MeasuredRow& row : rows) emit(row.label, row.per_node);
  return out.str();
}

std::string to_csv(std::span<const std::string> col_names,
                   std::span<const std::string> row_labels,
                   const std::vector<std::vector<double>>& cells) {
  assert(cells.size() == row_labels.size());
  std::ostringstream out;
  for (std::size_t c = 0; c < col_names.size(); ++c) {
    if (c > 0) out << ',';
    out << col_names[c];
  }
  out << '\n';
  for (std::size_t r = 0; r < cells.size(); ++r) {
    out << row_labels[r];
    assert(cells[r].size() + 1 == col_names.size());
    for (const double v : cells[r]) {
      out << ',' << std::fixed << std::setprecision(3) << v;
    }
    out << '\n';
  }
  return out.str();
}

std::string format_heatmap(const mem::BandwidthMatrix& m,
                           const std::string& row_prefix,
                           const std::string& col_prefix) {
  static constexpr char kShades[] = " .:-=+*#%@";
  constexpr int kLevels = 10;
  const int n = m.num_nodes();
  double lo = m.at(0, 0), hi = lo;
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      lo = std::min(lo, m.at(r, c));
      hi = std::max(hi, m.at(r, c));
    }
  }
  std::ostringstream out;
  out << std::left << std::setw(6) << "";
  for (int c = 0; c < n; ++c) out << (col_prefix.empty() ? "" : "") << c;
  out << '\n';
  for (int r = 0; r < n; ++r) {
    out << std::left << std::setw(6) << (row_prefix + std::to_string(r));
    for (int c = 0; c < n; ++c) {
      int level = 0;
      if (hi > lo) {
        level = static_cast<int>((m.at(r, c) - lo) / (hi - lo) *
                                 (kLevels - 1) + 0.5);
      }
      out << kShades[level];
    }
    out << '\n';
  }
  out << "scale: '" << kShades[0] << "' = " << std::fixed
      << std::setprecision(1) << lo << " Gbps ... '"
      << kShades[kLevels - 1] << "' = " << hi << " Gbps\n";
  (void)col_prefix;
  return out.str();
}

}  // namespace numaio::model
