#include "nm/policy.h"

#include <stdexcept>
#include <system_error>

#include "obs/text.h"

namespace numaio::nm {

std::vector<int> parse_id_list(std::string_view list, int max_id) {
  std::vector<int> ids;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    const std::string_view item = list.substr(pos, comma - pos);
    pos = comma + 1;
    // An id reads as the range id-id; a leading '-' leaves lo empty.
    const std::size_t dash = item.find('-');
    const std::string_view lo_text = item.substr(0, dash);
    const std::string_view hi_text =
        dash == std::string_view::npos ? item : item.substr(dash + 1);
    int lo = 0;
    int hi = 0;
    if (obs::text::parse_number(lo_text, lo) != std::errc() ||
        obs::text::parse_number(hi_text, hi) != std::errc() || lo > hi) {
      throw std::invalid_argument("bad entry '" + std::string(item) +
                                  "' in id list '" + std::string(list) +
                                  "'");
    }
    if (hi > max_id) {
      throw std::out_of_range("id " + std::to_string(hi) + " above " +
                              std::to_string(max_id) + " in id list '" +
                              std::string(list) + "'");
    }
    for (int id = lo; id <= hi; ++id) ids.push_back(id);
  }
  return ids;
}

Policy parse_numactl(const std::string& spec) {
  Policy policy;
  for (const std::string_view token : obs::text::split_words(spec)) {
    const auto eq = token.find('=');
    const std::string opt(token.substr(0, eq));
    const std::string val(eq == std::string_view::npos ? std::string_view()
                                                       : token.substr(eq + 1));
    auto need_val = [&]() {
      if (val.empty()) {
        throw std::invalid_argument("parse_numactl: option '" + opt +
                                    "' requires a value");
      }
    };
    if (opt == "--cpunodebind" || opt == "-N") {
      need_val();
      const auto nodes = parse_id_list(val, kMaxNodeId);
      if (nodes.size() != 1) {
        throw std::invalid_argument(
            "parse_numactl: --cpunodebind takes exactly one node here");
      }
      policy.cpu_node = nodes.front();
    } else if (opt == "--membind" || opt == "-m") {
      need_val();
      policy.mode = MemMode::kBind;
      policy.mem_nodes = parse_id_list(val, kMaxNodeId);
    } else if (opt == "--preferred" || opt == "-p") {
      need_val();
      const auto nodes = parse_id_list(val, kMaxNodeId);
      if (nodes.size() != 1) {
        throw std::invalid_argument(
            "parse_numactl: --preferred takes exactly one node");
      }
      policy.mode = MemMode::kPreferred;
      policy.mem_nodes = nodes;
    } else if (opt == "--interleave" || opt == "-i") {
      need_val();
      policy.mode = MemMode::kInterleave;
      policy.mem_nodes = parse_id_list(val, kMaxNodeId);
    } else if (opt == "--localalloc" || opt == "-l") {
      policy.mode = MemMode::kLocalPreferred;
      policy.mem_nodes.clear();
    } else {
      throw std::invalid_argument("parse_numactl: unknown option '" + opt +
                                  "'");
    }
  }
  return policy;
}

std::string to_numactl_string(const Policy& policy) {
  std::string out;
  auto join = [](const std::vector<NodeId>& nodes) {
    std::string s;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (i > 0) s += ',';
      s += std::to_string(nodes[i]);
    }
    return s;
  };
  if (policy.cpu_node) {
    out += "--cpunodebind=" + std::to_string(*policy.cpu_node);
  }
  auto append = [&out](const std::string& part) {
    if (!out.empty()) out += ' ';
    out += part;
  };
  switch (policy.mode) {
    case MemMode::kLocalPreferred:
      append("--localalloc");
      break;
    case MemMode::kBind:
      append("--membind=" + join(policy.mem_nodes));
      break;
    case MemMode::kPreferred:
      append("--preferred=" + join(policy.mem_nodes));
      break;
    case MemMode::kInterleave:
      append("--interleave=" + join(policy.mem_nodes));
      break;
  }
  return out;
}

}  // namespace numaio::nm
