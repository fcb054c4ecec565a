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
//   status <revision> fresh|stale       (optional; default "1 fresh")
//   model <target> write|read <bw0> <bw1> ... <bwN-1>
//   classes <target> write|read <k> { <ids> } { <ids> } ...
//   end
//
// The status record carries the model's re-characterization revision and
// whether drift detection has marked it stale; it is emitted only when it
// differs from the default, so v1 files written before it existed parse
// and re-serialize byte-identically.
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
  /// Bumped each time refresh_if_drifted() re-characterizes the host.
  int revision = 1;
  /// Set by drift detection when a re-probe moved outside its class;
  /// consumers (schedule_robust) treat a stale model as unusable until it
  /// is re-characterized.
  bool stale = false;

  const IoModelResult& model_for(NodeId target, Direction dir) const {
    return dir == Direction::kDeviceWrite
               ? write_models[static_cast<std::size_t>(target)]
               : read_models[static_cast<std::size_t>(target)];
  }
  const Classification& classes_for(NodeId target, Direction dir) const {
    return dir == Direction::kDeviceWrite
               ? write_classes[static_cast<std::size_t>(target)]
               : read_classes[static_cast<std::size_t>(target)];
  }
};

struct CharacterizeConfig {
  IoModelConfig iomodel{};
  ClassifyConfig classify{};
};

/// Runs Algorithm 1 for every node in both directions and classifies.
HostModel characterize_host(nm::Host& host,
                            const CharacterizeConfig& config = {});

struct DriftConfig {
  /// A re-probe deviating from the stored value by more than this
  /// fraction — or landing outside its class's stored bandwidth range
  /// widened by it — flags drift.
  double rel_tolerance = 0.10;
  /// Config for the re-probe run; defaults to a short run (the probe only
  /// needs one node per class, not characterization-grade averages).
  IoModelConfig iomodel{.repetitions = 25};
};

struct DriftReport {
  bool drifted = false;
  /// One line per probed class, deterministic format.
  std::vector<std::string> notes;
};

/// Drift detection for one (target, direction) model: re-measures the
/// host and compares one representative node per class against the stored
/// bandwidths. A deviation beyond the tolerance, or a probe that lands in
/// a different class's bandwidth range, marks the whole model stale.
/// Probes that themselves abort never mark drift (no evidence either
/// way); they are reported in the notes.
DriftReport check_drift(nm::Host& host, HostModel& model, NodeId target,
                        Direction dir, const DriftConfig& config = {});

/// Runs check_drift for every (target, direction); if any drift was
/// found, re-characterizes the host in place, bumps the revision, clears
/// the stale flag and returns true.
bool refresh_if_drifted(nm::Host& host, HostModel& model,
                        const CharacterizeConfig& config = {},
                        const DriftConfig& drift = {});

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
