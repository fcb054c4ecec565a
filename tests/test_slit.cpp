#include "nm/slit.h"

#include <gtest/gtest.h>

#include "topo/presets.h"

namespace numaio::nm {
namespace {

TEST(Slit, DiagonalIsTenAndHopsScaleByTen) {
  const auto topo = topo::magny_cours_4p('a');
  const auto slit = slit_table(topo);
  EXPECT_EQ(slit[7][7], 10);
  EXPECT_EQ(slit[7][6], 20);  // neighbor: one hop
  EXPECT_EQ(slit[7][0], 20);  // one inter-package hop
  EXPECT_EQ(slit[7][1], 30);  // two hops
}

TEST(Slit, TableIsSymmetricForUndirectedWiring) {
  const auto slit = slit_table(topo::magny_cours_4p('b'));
  for (std::size_t a = 0; a < slit.size(); ++a) {
    for (std::size_t b = 0; b < slit.size(); ++b) {
      EXPECT_EQ(slit[a][b], slit[b][a]);
    }
  }
}

TEST(Slit, RenderLooksLikeNumactl) {
  const auto text = render_slit(slit_table(topo::magny_cours_4p('a')));
  EXPECT_NE(text.find("node distances:"), std::string::npos);
  EXPECT_NE(text.find("   0:"), std::string::npos);
  EXPECT_NE(text.find("  10"), std::string::npos);
}

}  // namespace
}  // namespace numaio::nm
