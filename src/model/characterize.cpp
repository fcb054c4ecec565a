#include "model/characterize.h"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>
#include <system_error>

#include "nm/policy.h"
#include "obs/text.h"
#include "simcore/status.h"

namespace numaio::model {

namespace {

[[noreturn]] void fail(int line, const std::string& what) {
  throw StatusError(StatusCode::kParse, "host model line " +
                                            std::to_string(line) + ": " +
                                            what);
}

const char* dir_name(Direction dir) {
  return dir == Direction::kDeviceWrite ? "write" : "read";
}

}  // namespace

HostModel characterize_host(nm::Host& host,
                            const CharacterizeConfig& config) {
  if (const Status status = config.iomodel.validate(); !status.ok()) {
    throw StatusError(status);
  }
  obs::Context* obs = config.iomodel.obs;
  obs::SpanId span = 0;
  if (obs != nullptr) {
    obs->metrics.add(obs->metrics.counter("characterize.hosts"));
    if (obs->trace.enabled()) {
      obs::EventFields fields;
      fields.detail = host.machine().profile().name;
      span = obs->trace.begin_span("characterize.host",
                                   config.iomodel.obs_parent, fields);
    }
  }
  IoModelConfig iomodel = config.iomodel;
  iomodel.obs_parent = span;

  HostModel model;
  model.host_name = host.machine().profile().name;
  model.num_nodes = host.num_configured_nodes();
  const topo::Topology& topo = host.machine().topology();
  for (NodeId target = 0; target < model.num_nodes; ++target) {
    model.write_models.push_back(build_iomodel(
        host, target, Direction::kDeviceWrite, iomodel));
    model.read_models.push_back(build_iomodel(
        host, target, Direction::kDeviceRead, iomodel));
    model.write_classes.push_back(classify(model.write_models.back(), topo));
    model.read_classes.push_back(classify(model.read_models.back(), topo));
  }
  if (obs != nullptr && obs->trace.enabled()) {
    obs->trace.end_span(span, "ok");
  }
  return model;
}

std::string serialize(const HostModel& model) {
  std::ostringstream out;
  out << "numaio-model v1\n";
  out << "host " << model.host_name << " nodes " << model.num_nodes << '\n';
  auto emit = [&](const IoModelResult& m, const Classification& c,
                  Direction dir) {
    out << "model " << m.target << ' ' << dir_name(dir);
    out << std::setprecision(17);
    for (double v : m.bw) out << ' ' << v;
    out << '\n';
    out << "classes " << m.target << ' ' << dir_name(dir) << ' '
        << c.num_classes();
    for (const auto& cls : c.classes) {
      out << " {";
      for (NodeId v : cls) out << ' ' << v;
      out << " }";
    }
    out << '\n';
  };
  for (int t = 0; t < model.num_nodes; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    emit(model.write_models[ti], model.write_classes[ti],
         Direction::kDeviceWrite);
    emit(model.read_models[ti], model.read_classes[ti],
         Direction::kDeviceRead);
  }
  out << "end\n";
  return out.str();
}

HostModel parse_host_model(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto next_line = [&]() -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      if (!line.empty()) return true;
    }
    return false;
  };
  // `word` as an int in [min, max] by the shared number grammar
  // (docs/FORMATS.md "Numbers"), or a failure naming the `what`.
  auto read_int = [&line_no](std::string_view word, int min, int max,
                             const char* what) {
    int v = 0;
    if (obs::text::parse_number(word, v) != std::errc() || v < min ||
        v > max) {
      fail(line_no, "bad " + std::string(what) + " '" + std::string(word) +
                        "', want " + std::to_string(min) + "-" +
                        std::to_string(max));
    }
    return v;
  };

  if (!next_line() || line != "numaio-model v1") {
    fail(line_no, "expected header 'numaio-model v1'");
  }
  if (!next_line()) fail(line_no, "missing host line");
  HostModel model;
  {
    const std::vector<std::string_view> words = obs::text::split_words(line);
    if (words.size() != 4 || words[0] != "host" || words[2] != "nodes") {
      fail(line_no, "malformed host line");
    }
    model.host_name = words[1];
    // Bounded before the per-node tables below are sized from it.
    model.num_nodes = read_int(words[3], 1, nm::kMaxNodeId + 1, "node count");
  }
  const auto n = static_cast<std::size_t>(model.num_nodes);
  model.write_models.resize(n);
  model.read_models.resize(n);
  model.write_classes.resize(n);
  model.read_classes.resize(n);
  std::vector<bool> seen_model(2 * n, false);
  std::vector<bool> seen_classes(2 * n, false);

  while (next_line() && line != "end") {
    const std::vector<std::string_view> words = obs::text::split_words(line);
    if (words.size() < 3) fail(line_no, "malformed record header");
    const int target =
        read_int(words[1], 0, model.num_nodes - 1, "target node");
    const std::string_view dir = words[2];
    if (dir != "write" && dir != "read") {
      fail(line_no, "malformed record header");
    }
    const bool write = dir == "write";
    const std::size_t slot =
        static_cast<std::size_t>(target) * 2 + (write ? 0 : 1);
    if (words[0] == "model") {
      IoModelResult m;
      m.target = target;
      m.direction = write ? Direction::kDeviceWrite : Direction::kDeviceRead;
      for (std::size_t i = 3; i < words.size(); ++i) {
        double v = 0.0;
        if (obs::text::parse_number(words[i], v) != std::errc()) {
          fail(line_no, "bad bandwidth '" + std::string(words[i]) + "'");
        }
        if (v <= 0.0) fail(line_no, "non-positive bandwidth");
        m.bw.push_back(v);
      }
      if (static_cast<int>(m.bw.size()) != model.num_nodes) {
        fail(line_no, "bandwidth count mismatch");
      }
      (write ? model.write_models : model.read_models)[static_cast<std::size_t>(target)] =
          std::move(m);
      seen_model[slot] = true;
    } else if (words[0] == "classes") {
      if (!seen_model[slot]) {
        fail(line_no, "classes before their model record");
      }
      if (words.size() < 4) fail(line_no, "bad class count");
      const int k = read_int(words[3], 1, model.num_nodes, "class count");
      // Every class is opened, filled and closed in turn, so none
      // reaches summarize_classes empty.
      std::vector<std::vector<NodeId>> members;
      bool open = false;
      for (std::size_t i = 4; i < words.size(); ++i) {
        const std::string_view tok = words[i];
        if (tok == "{") {
          if (open) fail(line_no, "unclosed class");
          members.emplace_back();
          open = true;
        } else if (tok == "}") {
          if (!open) fail(line_no, "'}' without '{'");
          if (members.back().empty()) fail(line_no, "empty class");
          open = false;
        } else {
          if (!open) fail(line_no, "node outside class braces");
          members.back().push_back(
              read_int(tok, 0, model.num_nodes - 1, "node id"));
        }
      }
      if (open) fail(line_no, "unclosed class");
      if (static_cast<int>(members.size()) != k) {
        fail(line_no, "class count mismatch");
      }
      // Every node appears exactly once.
      std::vector<int> count(n, 0);
      for (const auto& cls : members) {
        for (NodeId v : cls) ++count[static_cast<std::size_t>(v)];
      }
      for (int c : count) {
        if (c != 1) fail(line_no, "classes must partition the nodes");
      }
      const auto& bw =
          (write ? model.write_models : model.read_models)[static_cast<std::size_t>(target)].bw;
      (write ? model.write_classes
             : model.read_classes)[static_cast<std::size_t>(target)] =
          summarize_classes(std::move(members), bw);
      seen_classes[slot] = true;
    } else {
      fail(line_no, "unknown record '" + std::string(words[0]) + "'");
    }
  }
  if (line != "end") fail(line_no, "missing 'end'");
  for (std::size_t s = 0; s < 2 * n; ++s) {
    if (!seen_model[s] || !seen_classes[s]) {
      fail(line_no, "incomplete model: missing records");
    }
  }
  return model;
}

HostModel load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw StatusError(StatusCode::kNoFile, "cannot read '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_host_model(text.str());  // throws StatusError kParse
}

void save_model(const HostModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw StatusError(StatusCode::kNoFile, "cannot write '" + path + "'");
  }
  out << serialize(model);
  out.flush();
  if (!out) {
    throw StatusError(StatusCode::kNoFile, "failed writing '" + path + "'");
  }
}

}  // namespace numaio::model
