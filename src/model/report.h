// Plain-text reporting used by the benchmark binaries: bandwidth matrices
// (Fig 3), per-node series (Figs 4-7, 10), and class tables in the shape of
// the paper's Tables IV/V. Everything also exports as CSV for plotting.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "mem/membench.h"
#include "model/classify.h"

namespace numaio::model {

/// "CPUx x MEMy" bandwidth matrix with row/column headers.
std::string format_matrix(const mem::BandwidthMatrix& m,
                          const std::string& row_prefix = "CPU",
                          const std::string& col_prefix = "MEM");

/// One labelled series, e.g. per-node bandwidths of a model.
std::string format_series(const std::string& title,
                          std::span<const sim::Gbps> values,
                          const std::string& label_prefix = "node");

/// A Tables-IV/V-style block: one classification plus measured rows.
struct MeasuredRow {
  std::string label;                 ///< e.g. "TCP sender".
  std::vector<sim::Gbps> per_node;   ///< Value per node.
};
std::string format_class_table(const Classification& classes,
                               const std::string& model_label,
                               std::span<const sim::Gbps> model_values,
                               std::span<const MeasuredRow> rows);

/// CSV with a header row; `row_labels` indexes the first column.
std::string to_csv(std::span<const std::string> col_names,
                   std::span<const std::string> row_labels,
                   const std::vector<std::vector<double>>& cells);

/// ASCII heatmap of a bandwidth matrix: one shade character per cell,
/// scaled min..max over the whole matrix (' ' lightest load, '@' peak
/// bandwidth). Makes the Fig-3 asymmetry visible at a glance in a
/// terminal.
std::string format_heatmap(const mem::BandwidthMatrix& m,
                           const std::string& row_prefix = "CPU",
                           const std::string& col_prefix = "MEM");

}  // namespace numaio::model
