// Model-agreement statistics for §IV's mismatch arguments.
//
// The paper's case against hop distance and STREAM rests on *orderings*:
// which bindings a model ranks fast must match which bindings real I/O
// measures fast. Rank correlation quantifies that agreement — high for the
// proposed memcpy model against every I/O engine, low (or inverted) for
// the STREAM-derived models against RDMA_READ.
#pragma once

#include <span>

#include "simcore/units.h"

namespace numaio::model {

/// Spearman rank correlation of two equal-length series (average ranks for
/// ties). Returns a value in [-1, 1]; 0 when either series is constant.
double spearman(std::span<const double> a, std::span<const double> b);

}  // namespace numaio::model
