// Methodology validation suite.
//
// The paper's pitch is that the memcpy model "can be obtained, and used to
// improve application I/O behavior ... for all NUMA platforms" (§I-B).
// For a new platform an adopter wants to *check* that before trusting the
// classes. ValidationSuite re-runs the paper's own evidence chain on any
// testbed — model vs measured I/O rank agreement, class-value coherence,
// Eq.-1 prediction error, scheduler win — and reports each claim with its
// measured margin.
#pragma once

#include <string>
#include <vector>

#include "io/testbed.h"
#include "model/classify.h"

namespace numaio::model {

struct ClaimResult {
  std::string name;
  bool passed = false;
  double value = 0.0;      ///< The measured statistic.
  double threshold = 0.0;  ///< What it was checked against.
  std::string detail;
};

struct ValidationReport {
  std::vector<ClaimResult> claims;
  bool all_passed() const {
    for (const auto& c : claims) {
      if (!c.passed) return false;
    }
    return true;
  }
  std::string to_string() const;
};

struct ValidateConfig {
  /// Minimum Spearman agreement between the model and each offloaded
  /// engine (RDMA/SSD; TCP is exempted — the paper's own TCP rows carry
  /// non-NUMA residuals).
  double min_offloaded_spearman = 0.6;
  /// Repetitions for Algorithm 1 (lower for quick checks).
  int iomodel_repetitions = 100;
};

/// Runs the full validation chain on a testbed. Exercises the NIC and SSD
/// engines; leaves the testbed state unchanged. The other bounds are
/// fixed: at most 12% measured spread within a class, at most 8% Eq.-1
/// error and a cost ratio of at most 0.75. Throws StatusError(kUsage)
/// naming `iomodel_repetitions` when it is below 1, before any work.
ValidationReport validate_methodology(io::Testbed& testbed,
                                      const ValidateConfig& config = {});

}  // namespace numaio::model
