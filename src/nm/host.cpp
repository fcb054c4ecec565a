#include "nm/host.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <sstream>
#include <stdexcept>

namespace numaio::nm {

NodeId Buffer::home() const {
  assert(!placement.empty());
  NodeId best = placement.front().first;
  sim::Bytes best_bytes = placement.front().second;
  for (const auto& [node, bytes] : placement) {
    if (bytes > best_bytes || (bytes == best_bytes && node < best)) {
      best = node;
      best_bytes = bytes;
    }
  }
  return best;
}

Host::Host(fabric::Machine& machine, OsFootprint os)
    : machine_(machine), stats_(machine.num_nodes()) {
  const int n = machine_.num_nodes();
  free_bytes_.reserve(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    const double total_gb = machine_.topology().node(i).memory_gb;
    const double resident_gb = i == 0 ? os.node0_gb : os.other_gb;
    const double free_gb = std::max(0.0, total_gb - resident_gb);
    free_bytes_.push_back(static_cast<sim::Bytes>(free_gb * 1024) * sim::kMiB);
  }
}

int Host::num_configured_nodes() const { return machine_.num_nodes(); }

int Host::num_configured_cores() const {
  return machine_.topology().total_cores();
}

int Host::cores_on_node(NodeId node) const {
  return machine_.topology().node(node).cores;
}

sim::Bytes Host::node_size_bytes(NodeId node) const {
  return static_cast<sim::Bytes>(
             machine_.topology().node(node).memory_gb * 1024) *
         sim::kMiB;
}

sim::Bytes Host::node_free_bytes(NodeId node) const {
  assert(node >= 0 && node < num_configured_nodes());
  return free_bytes_[static_cast<std::size_t>(node)];
}

Buffer Host::place_all_on(sim::Bytes size, NodeId node, NodeId intended) {
  auto& free = free_bytes_[static_cast<std::size_t>(node)];
  if (free < size) throw std::bad_alloc();
  free -= size;
  if (node == intended) {
    ++stats_.node(node).numa_hit;
  } else {
    ++stats_.node(node).numa_miss;
    ++stats_.node(intended).numa_foreign;
  }
  Buffer b;
  b.size = size;
  b.placement = {{node, size}};
  return b;
}

Buffer Host::alloc_on_node(sim::Bytes size, NodeId node) {
  assert(node >= 0 && node < num_configured_nodes());
  assert(size > 0);
  return place_all_on(size, node, node);
}

Buffer Host::alloc_interleaved(sim::Bytes size, std::span<const NodeId> nodes) {
  assert(size > 0);
  std::vector<NodeId> targets(nodes.begin(), nodes.end());
  if (targets.empty()) {
    for (NodeId i = 0; i < num_configured_nodes(); ++i) targets.push_back(i);
  }
  const sim::Bytes share = size / targets.size();
  sim::Bytes remainder = size - share * targets.size();
  // All-or-nothing: check capacity before touching counters.
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const sim::Bytes want = share + (i == 0 ? remainder : 0);
    if (node_free_bytes(targets[i]) < want) throw std::bad_alloc();
  }
  Buffer b;
  b.size = size;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const sim::Bytes want = share + (i == 0 ? remainder : 0);
    if (want == 0) continue;
    free_bytes_[static_cast<std::size_t>(targets[i])] -= want;
    ++stats_.node(targets[i]).interleave_hit;
    b.placement.emplace_back(targets[i], want);
  }
  return b;
}

Buffer Host::alloc_local(sim::Bytes size, NodeId running_node) {
  assert(running_node >= 0 && running_node < num_configured_nodes());
  assert(size > 0);
  if (node_free_bytes(running_node) >= size) {
    return place_all_on(size, running_node, running_node);
  }
  // Local node full: fall back to the node with the most free memory
  // (Linux falls back by distance; with a calibrated fabric the
  // most-free-node heuristic keeps experiments deterministic and is
  // equivalent for our idle-host scenarios).
  NodeId fallback = running_node;
  sim::Bytes best_free = 0;
  for (NodeId i = 0; i < num_configured_nodes(); ++i) {
    if (i == running_node) continue;
    if (node_free_bytes(i) > best_free) {
      best_free = node_free_bytes(i);
      fallback = i;
    }
  }
  if (best_free < size) throw std::bad_alloc();
  return place_all_on(size, fallback, running_node);
}

Buffer Host::alloc_with_policy(sim::Bytes size, const Policy& policy,
                               NodeId running_node) {
  switch (policy.mode) {
    case MemMode::kLocalPreferred:
      return alloc_local(size, policy.cpu_node.value_or(running_node));
    case MemMode::kBind: {
      // Hard binding: first node in the set with room, else failure.
      for (NodeId node : policy.mem_nodes) {
        if (node_free_bytes(node) >= size) {
          return place_all_on(size, node, node);
        }
      }
      throw std::bad_alloc();
    }
    case MemMode::kPreferred: {
      assert(policy.mem_nodes.size() == 1);
      const NodeId preferred = policy.mem_nodes.front();
      if (node_free_bytes(preferred) >= size) {
        return place_all_on(size, preferred, preferred);
      }
      return alloc_local(size, preferred);  // preferred full: soft fallback
    }
    case MemMode::kInterleave:
      return alloc_interleaved(size, policy.mem_nodes);
  }
  throw std::logic_error("alloc_with_policy: unreachable");
}

void Host::free(Buffer& buffer) {
  for (const auto& [node, bytes] : buffer.placement) {
    free_bytes_[static_cast<std::size_t>(node)] += bytes;
  }
  buffer.placement.clear();
  buffer.size = 0;
}

std::string Host::hardware_report() const {
  std::ostringstream out;
  const int n = num_configured_nodes();
  out << "available: " << n << " nodes (0-" << n - 1 << ")\n";
  for (NodeId i = 0; i < n; ++i) {
    out << "node " << i << " cpus:";
    // Cores are numbered node-major, like the paper's testbed.
    int first = 0;
    for (NodeId j = 0; j < i; ++j) first += cores_on_node(j);
    for (int c = 0; c < cores_on_node(i); ++c) out << ' ' << first + c;
    out << '\n';
    out << "node " << i << " size: " << node_size_bytes(i) / sim::kMiB
        << " MB\n";
    out << "node " << i << " free: " << node_free_bytes(i) / sim::kMiB
        << " MB\n";
  }
  return out.str();
}

}  // namespace numaio::nm
