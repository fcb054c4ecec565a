#include "model/validate.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "model/analysis.h"
#include "model/predictor.h"

namespace numaio::model {

namespace {

std::vector<double> sweep(io::Testbed& tb, const std::string& engine) {
  io::FioRunner fio(tb.host());
  const std::vector<const io::PcieDevice*> devices =
      tb.devices().for_engine(engine);
  std::vector<double> out;
  for (NodeId node = 0; node < tb.machine().num_nodes(); ++node) {
    io::FioJob j;
    j.devices = devices;
    j.engine = engine;
    j.cpu_node = node;
    j.num_streams = 4;
    out.push_back(fio.run(j).aggregate);
  }
  return out;
}

/// Largest relative spread of measured values within any one class.
double worst_class_spread(const Classification& classes,
                          const std::vector<double>& io) {
  const Classification measured = summarize_classes(classes.classes, io);
  double worst = 0.0;
  for (const auto& [lo, hi] : measured.class_range) {
    if (hi > 0.0) worst = std::max(worst, (hi - lo) / hi);
  }
  return worst;
}

}  // namespace

std::string ValidationReport::to_string() const {
  std::ostringstream out;
  for (const ClaimResult& c : claims) {
    out << (c.passed ? "[pass] " : "[FAIL] ") << c.name << ": "
        << c.value << " vs " << c.threshold;
    if (!c.detail.empty()) out << "  (" << c.detail << ")";
    out << '\n';
  }
  out << (all_passed() ? "methodology holds on this host\n"
                       : "methodology NOT validated on this host\n");
  return out.str();
}

ValidationReport validate_methodology(io::Testbed& tb,
                                      const ValidateConfig& config) {
  if (config.iomodel_repetitions < 1) {
    throw StatusError(StatusCode::kUsage, "iomodel_repetitions must be >= 1");
  }
  ValidationReport report;
  const NodeId device_node = tb.device_node();
  IoModelConfig model_config;
  model_config.repetitions = config.iomodel_repetitions;

  const auto wm = build_iomodel(tb.host(), device_node,
                                Direction::kDeviceWrite, model_config);
  const auto rm = build_iomodel(tb.host(), device_node,
                                Direction::kDeviceRead, model_config);
  const auto wc = classify(wm, tb.machine().topology());
  const auto rc = classify(rm, tb.machine().topology());

  // Claim 1: the model ranks every offloaded engine's bindings.
  struct EngineCase {
    const char* engine;
    const IoModelResult* model;
    const Classification* classes;
  };
  const EngineCase cases[] = {{io::kRdmaWrite, &wm, &wc},
                              {io::kSsdWrite, &wm, &wc},
                              {io::kRdmaRead, &rm, &rc},
                              {io::kSsdRead, &rm, &rc}};
  std::vector<std::vector<double>> sweeps;
  for (const EngineCase& c : cases) {
    sweeps.push_back(sweep(tb, c.engine));
    const double rho = spearman(c.model->bw, sweeps.back());
    report.claims.push_back(
        ClaimResult{std::string("rank agreement ") + c.engine,
                    rho >= config.min_offloaded_spearman, rho,
                    config.min_offloaded_spearman, "Spearman"});
  }

  // Claim 2: measured I/O is coherent within each model class.
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const double spread = worst_class_spread(*cases[i].classes, sweeps[i]);
    report.claims.push_back(
        ClaimResult{std::string("class coherence ") + cases[i].engine,
                    spread <= 0.12, spread, 0.12,
                    "worst within-class relative spread"});
  }

  // Claim 3: Eq. 1 predicts a mixed workload from per-class probes.
  {
    io::FioRunner fio(tb.host());
    std::vector<double> class_values;
    for (NodeId rep : representative_nodes(rc)) {
      io::FioJob j;
      j.devices = {&tb.nic()};
      j.engine = io::kRdmaRead;
      j.cpu_node = rep;
      j.num_streams = 4;
      class_values.push_back(fio.run(j).aggregate);
    }
    // Mix: two streams from the best remote class, two from the worst.
    const NodeId strong =
        rc.classes[static_cast<std::size_t>(1 % rc.num_classes())].front();
    const NodeId weak = rc.classes.back().front();
    const std::vector<std::pair<NodeId, int>> bindings{{strong, 2},
                                                       {weak, 2}};
    const double predicted =
        predict_for_bindings(rc, class_values, bindings);
    io::FioJob a;
    a.devices = {&tb.nic()};
    a.engine = io::kRdmaRead;
    a.cpu_node = strong;
    a.num_streams = 2;
    io::FioJob b = a;
    b.cpu_node = weak;
    const double measured =
        io::combined_aggregate(fio.run_concurrent({a, b}));
    const double eps = relative_error(predicted, measured);
    report.claims.push_back(ClaimResult{
        "Eq.1 prediction error", eps <= 0.08, eps, 0.08,
        "mixed RDMA_READ, " + std::to_string(predicted).substr(0, 6) +
            " predicted vs " + std::to_string(measured).substr(0, 6)});
  }

  // Claim 4: the cost reduction is real — probing representatives covers
  // the full sweep (checked via class coherence above); report the ratio.
  {
    const double ratio =
        static_cast<double>(rc.num_classes()) /
        static_cast<double>(tb.machine().num_nodes());
    report.claims.push_back(ClaimResult{
        "characterization cost ratio", ratio <= 0.75, ratio, 0.75,
        std::to_string(rc.num_classes()) + " probes instead of " +
            std::to_string(tb.machine().num_nodes())});
  }
  return report;
}

}  // namespace numaio::model
