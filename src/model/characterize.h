// Whole-host characterization and persistence.
//
// §V-B: "The methodology used to model the performance of node 7 can also
// be generalized to other nodes in the host and other NUMA systems."
// characterize_host() runs Algorithm 1 for *every* node in both
// directions and classifies each result — the complete I/O character of a
// host, computed once (milliseconds of memcpy per node) and cached.
//
// The text format is versioned and round-trips exactly:
//
//   numaio-model v1
//   host <name> nodes <n>
//   model <target> write|read <bw0> <bw1> ... <bwN-1>
//   classes <target> write|read <k> { <ids> } { <ids> } ...
//   end
#pragma once

#include <string>
#include <vector>

#include "model/classify.h"

namespace numaio::model {

struct HostModel {
  std::string host_name;
  int num_nodes = 0;
  /// Indexed by target node.
  std::vector<IoModelResult> write_models;
  std::vector<IoModelResult> read_models;
  std::vector<Classification> write_classes;
  std::vector<Classification> read_classes;

  const Classification& classes_for(NodeId target, Direction dir) const {
    return dir == Direction::kDeviceWrite
               ? write_classes[static_cast<std::size_t>(target)]
               : read_classes[static_cast<std::size_t>(target)];
  }
};

struct CharacterizeConfig {
  IoModelConfig iomodel{};
};

/// Runs Algorithm 1 for every node in both directions and classifies
/// each result with the default ClassifyConfig. Throws
/// StatusError(kUsage) when config.iomodel.validate() fails, before any
/// span opens.
HostModel characterize_host(nm::Host& host,
                            const CharacterizeConfig& config = {});

/// Serializes to the versioned text format above.
std::string serialize(const HostModel& model);

/// Parses the text format; throws StatusError (StatusCode::kParse, which
/// is-a std::invalid_argument) with a line number on malformed input.
HostModel parse_host_model(const std::string& text);

/// Reads and parses a host-model file. Throws StatusError:
/// StatusCode::kNoFile when the file cannot be read, StatusCode::kParse
/// when its contents are malformed.
HostModel load_model(const std::string& path);

/// Writes serialize(model) to `path`. Throws StatusError
/// (StatusCode::kNoFile) when the file cannot be written.
void save_model(const HostModel& model, const std::string& path);

}  // namespace numaio::model
