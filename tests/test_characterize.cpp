#include "model/characterize.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fabric/calibration.h"
#include "simcore/status.h"

namespace numaio::model {
namespace {

class CharacterizeTest : public ::testing::Test {
 protected:
  CharacterizeTest() : machine_(fabric::dl585_profile()), host_(machine_) {
    CharacterizeConfig quick;
    quick.iomodel.repetitions = 5;  // keep the 16-model sweep snappy
    model_ = characterize_host(host_, quick);
  }
  fabric::Machine machine_;
  nm::Host host_;
  HostModel model_;
};

TEST_F(CharacterizeTest, CoversEveryNodeBothDirections) {
  EXPECT_EQ(model_.host_name, "hp-dl585-g7");
  EXPECT_EQ(model_.num_nodes, 8);
  ASSERT_EQ(model_.write_models.size(), 8u);
  ASSERT_EQ(model_.read_models.size(), 8u);
  for (NodeId t = 0; t < 8; ++t) {
    EXPECT_EQ(model_.model_for(t, Direction::kDeviceWrite).target, t);
    EXPECT_EQ(model_.model_for(t, Direction::kDeviceRead).target, t);
    EXPECT_EQ(model_.classes_for(t, Direction::kDeviceWrite)
                  .classes.front()
                  .size() +
                  0u,
              2u);  // target + its package neighbor
  }
}

TEST_F(CharacterizeTest, Node7MatchesSingleTargetRun) {
  IoModelConfig quick;
  quick.repetitions = 5;
  const auto direct =
      build_iomodel(host_, 7, Direction::kDeviceRead, quick);
  const auto& from_sweep = model_.model_for(7, Direction::kDeviceRead);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(direct.bw[i], from_sweep.bw[i]);
  }
}

TEST_F(CharacterizeTest, SerializeRoundTripsExactly) {
  const std::string text = serialize(model_);
  const HostModel parsed = parse_host_model(text);
  EXPECT_EQ(parsed.host_name, model_.host_name);
  EXPECT_EQ(parsed.num_nodes, model_.num_nodes);
  for (NodeId t = 0; t < 8; ++t) {
    for (Direction dir :
         {Direction::kDeviceWrite, Direction::kDeviceRead}) {
      const auto& a = model_.model_for(t, dir);
      const auto& b = parsed.model_for(t, dir);
      for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_DOUBLE_EQ(a.bw[i], b.bw[i]) << t;
      }
      const auto& ca = model_.classes_for(t, dir);
      const auto& cb = parsed.classes_for(t, dir);
      EXPECT_EQ(ca.classes, cb.classes) << t;
      // The saved-model path recomputes the statistics through
      // summarize_classes in the same summation order: bit for bit.
      EXPECT_EQ(ca.class_avg, cb.class_avg) << t;
      EXPECT_EQ(ca.class_range, cb.class_range) << t;
      EXPECT_EQ(ca.class_of, cb.class_of);
    }
  }
  // Serialize(parse(serialize(x))) is byte-identical.
  EXPECT_EQ(serialize(parsed), text);
}

TEST_F(CharacterizeTest, SerializedFormHasTheDocumentedShape) {
  const std::string text = serialize(model_);
  EXPECT_EQ(text.rfind("numaio-model v1\n", 0), 0u);
  EXPECT_NE(text.find("host hp-dl585-g7 nodes 8"), std::string::npos);
  EXPECT_NE(text.find("model 7 read"), std::string::npos);
  EXPECT_NE(text.find("classes 7 write 3"), std::string::npos);
  EXPECT_NE(text.find("\nend\n"), std::string::npos);
}

TEST_F(CharacterizeTest, ParserRejectsGarbage) {
  EXPECT_THROW(parse_host_model(""), std::invalid_argument);
  EXPECT_THROW(parse_host_model("not a model\n"), std::invalid_argument);
  EXPECT_THROW(parse_host_model("numaio-model v1\nhost x nodes 0\nend\n"),
               std::invalid_argument);
}

TEST_F(CharacterizeTest, ParserRejectsTruncation) {
  std::string text = serialize(model_);
  text.resize(text.size() / 2);
  EXPECT_THROW(parse_host_model(text), std::invalid_argument);
}

TEST_F(CharacterizeTest, ParserRejectsBandwidthCountMismatch) {
  EXPECT_THROW(
      parse_host_model("numaio-model v1\nhost x nodes 2\n"
                       "model 0 write 10.0\n"
                       "classes 0 write 1 { 0 1 }\nend\n"),
      std::invalid_argument);
}

TEST_F(CharacterizeTest, ParserRejectsNonPartitionClasses) {
  // A '{' never closed once left an empty class with the right class
  // count and every node covered once; it has no first member to start
  // its range from.
  for (const std::string bad :
       {"1 { 0 0 }", "2 { 0 1 } {", "2 { { 0 1 }", "1 { 0 1", "1 } { 0 1 }",
        "1 { 0 } 1", "1 { 0 1 } }"}) {
    const std::string doc =
        "numaio-model v1\n"
        "host tiny nodes 2\n"
        "model 0 write 50.0 40.0\n"
        "classes 0 write " + bad + "\n"
        "model 0 read 50.0 41.0\n"
        "classes 0 read 1 { 0 1 }\n"
        "model 1 write 39.0 52.0\n"
        "classes 1 write 1 { 0 1 }\n"
        "model 1 read 38.0 52.0\n"
        "classes 1 read 1 { 0 1 }\n"
        "end\n";
    try {
      parse_host_model(doc);
      ADD_FAILURE() << "accepted classes '" << bad << "'";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kParse) << e.what();
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(CharacterizeTest, ParserReportsLineNumbers) {
  try {
    parse_host_model("numaio-model v1\nhost x nodes 2\nbogus 0 write\nend\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST_F(CharacterizeTest, ParserRejectsNodeIdsThatAreNotWholeIntegers) {
  // std::stoi stopped at the first non-digit, so "1x" and "1.9" loaded
  // as node 1.
  for (const std::string bad : {"1x", "1.9", "1e0", "+1", "0x1"}) {
    const std::string doc =
        "numaio-model v1\n"
        "host tiny nodes 2\n"
        "model 0 write 50.0 40.0\n"
        "classes 0 write 1 { 0 " + bad + " }\n"
        "model 0 read 50.0 41.0\n"
        "classes 0 read 1 { 0 1 }\n"
        "model 1 write 39.0 52.0\n"
        "classes 1 write 1 { 0 1 }\n"
        "model 1 read 38.0 52.0\n"
        "classes 1 read 1 { 0 1 }\n"
        "end\n";
    try {
      parse_host_model(doc);
      ADD_FAILURE() << "accepted node id '" << bad << "'";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code, StatusCode::kParse) << e.what();
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(CharacterizeTest, MinimalValidDocumentParses) {
  const HostModel m = parse_host_model(
      "numaio-model v1\n"
      "host tiny nodes 2\n"
      "model 0 write 50.0 40.0\n"
      "classes 0 write 1 { 0 1 }\n"
      "model 0 read 50.0 41.0\n"
      "classes 0 read 1 { 0 1 }\n"
      "model 1 write 39.0 52.0\n"
      "classes 1 write 1 { 0 1 }\n"
      "model 1 read 38.0 52.0\n"
      "classes 1 read 1 { 0 1 }\n"
      "end\n");
  EXPECT_EQ(m.num_nodes, 2);
  EXPECT_DOUBLE_EQ(m.model_for(1, Direction::kDeviceRead).bw[0], 38.0);
  EXPECT_NEAR(m.classes_for(0, Direction::kDeviceWrite).class_avg[0], 45.0,
              1e-9);
}

}  // namespace
}  // namespace numaio::model
