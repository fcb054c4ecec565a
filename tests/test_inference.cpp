#include "model/inference.h"

#include <gtest/gtest.h>

#include "fabric/calibration.h"
#include "topo/presets.h"

namespace numaio::model {
namespace {

mem::BandwidthMatrix measure_dl585() {
  fabric::Machine machine{fabric::dl585_profile()};
  nm::Host host{machine};
  return mem::stream_matrix(host);
}

mem::BandwidthMatrix measure_derived(char variant) {
  fabric::Machine machine{
      fabric::derived_profile(topo::magny_cours_4p(variant))};
  nm::Host host{machine};
  return mem::stream_matrix(host);
}

TEST(Inference, HopDistanceExplainsAnIdealizedHost) {
  // Control: on a fabric *derived* from layout (a), hop distance explains
  // the STREAM matrix almost perfectly.
  const auto bw = measure_derived('a');
  const double score =
      hop_explanation_score(bw, topo::magny_cours_4p('a'));
  EXPECT_GT(score, 0.95);
}

TEST(Inference, HopDistanceFailsOnTheCalibratedHost) {
  // §IV-A's conclusion: the measured matrix is not explained by the
  // host's own nominal wiring.
  const auto bw = measure_dl585();
  const double score =
      hop_explanation_score(bw, topo::dl585_g7());
  EXPECT_LT(score, 0.80);
}

TEST(Inference, NoMagnyCoursVariantExplainsTheMeasurements) {
  // "The connectivity inferred from the test data does not match any of
  // the topologies shown in Figure 1."
  const auto bw = measure_dl585();
  const auto fits = fit_magny_cours_variants(bw);
  ASSERT_EQ(fits.size(), 4u);
  for (const auto& fit : fits) {
    EXPECT_LT(fit.score, 0.85) << fit.variant_name;
  }
  // Results are sorted best-first.
  for (std::size_t i = 1; i < fits.size(); ++i) {
    EXPECT_GE(fits[i - 1].score, fits[i].score);
  }
}

TEST(Inference, CalibratedHostIsAsymmetric) {
  // Cannot draw *any* undirected topology from an asymmetric matrix.
  const auto bw = measure_dl585();
  EXPECT_GT(asymmetry_index(bw), 0.04);
}

TEST(Inference, DerivedHostIsSymmetric) {
  const auto bw = measure_derived('a');
  EXPECT_LT(asymmetry_index(bw), 0.02);
}

TEST(Inference, InferredAdjacencyOnIdealHostFindsRealNeighbors) {
  const auto bw = measure_derived('a');
  const auto edges = infer_adjacency(bw);
  const auto topo = topo::magny_cours_4p('a');
  for (const auto& [a, b] : edges) {
    EXPECT_TRUE(topo.adjacent(a, b)) << a << "-" << b;
  }
}

TEST(Inference, InferredAdjacencyOnCalibratedHostContradictsWiring) {
  // On the paper's host the "fastest remote destination" heuristic
  // produces at least one edge the nominal wiring does not contain (e.g.
  // node 0's fastest is its package peer... but some node's best remote
  // is a non-adjacent one).
  const auto bw = measure_dl585();
  const auto edges = infer_adjacency(bw);
  const auto topo = topo::dl585_g7();
  int contradictions = 0;
  for (const auto& [a, b] : edges) {
    if (!topo.adjacent(a, b)) ++contradictions;
  }
  EXPECT_GT(contradictions, 0);
}

}  // namespace
}  // namespace numaio::model
