// An operations workflow, end to end, using the toolkit's persistence:
//
//   1. provisioning: characterize the host once, cache the model to disk
//      (the artifact an ops team would version-control),
//   2. intake: a production request trace arrives as CSV,
//   3. planning: load the cached model, plan buffer policies for the
//      trace's pinned bindings,
//   4. execution: replay the trace as-is and with the plan applied,
//      comparing aggregate delivery.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "numaio.h"

int main() {
  using namespace numaio;
  io::Testbed tb = io::Testbed::dl585();

  // 1. Characterize and cache.
  const std::string model_path = "/tmp/numaio_host.model";
  {
    model::CharacterizeConfig config;
    config.iomodel.repetitions = 20;
    const auto host_model = model::characterize_host(tb.host(), config);
    std::ofstream(model_path) << model::serialize(host_model);
    std::printf("cached host model to %s\n", model_path.c_str());
  }

  // 2. The request trace: RDMA readers pinned by the application layer.
  const std::string trace_text =
      "# nightly export fan-out\n"
      "0.0,rdma_read,0,48\n"
      "0.0,rdma_read,1,48\n"
      "0.5,rdma_read,4,64\n"
      "1.0,rdma_read,5,48\n";
  const auto entries = io::parse_trace(trace_text);

  // 3. Load the cached model and plan buffer policies for those bindings.
  std::ostringstream cached;
  cached << std::ifstream(model_path).rdbuf();
  const auto host_model = model::parse_host_model(cached.str());
  const auto& classes =
      host_model.classes_for(7, model::Direction::kDeviceRead);
  // Probe one node per class (the §V-A cost reduction).
  io::FioRunner fio(tb.host());
  std::vector<double> class_values;
  for (topo::NodeId rep : model::representative_nodes(classes)) {
    io::FioJob j;
    j.devices = {&tb.nic()};
    j.engine = io::kRdmaRead;
    j.cpu_node = rep;
    j.num_streams = 4;
    class_values.push_back(fio.run(j).aggregate);
  }
  std::vector<topo::NodeId> bindings;
  for (const auto& e : entries) bindings.push_back(e.cpu_node);
  const auto plan =
      model::plan_buffer_policies(classes, class_values, bindings);

  // 4. Replay: as-pinned vs with the planned buffer policies.
  auto replay = [&](bool apply_plan) {
    auto jobs = io::trace_to_jobs(entries, tb.devices());
    if (apply_plan) {
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        jobs[i].job.mem_policy = plan.processes[i].policy;
      }
    }
    const auto results = fio.run_timed(jobs);
    double bits = 0.0;
    sim::Ns end = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      bits += results[i].aggregate * results[i].duration;
      end = std::max(end, jobs[i].start + results[i].duration);
    }
    return bits / end;  // delivered Gbps over the busy period
  };
  const double base = replay(false);
  const double planned = replay(true);

  std::printf("\nplanned buffer policies:\n");
  for (std::size_t i = 0; i < plan.processes.size(); ++i) {
    std::printf("  request %zu (node %d): %s\n", i,
                plan.processes[i].cpu_node,
                nm::to_numactl_string(plan.processes[i].policy).c_str());
  }
  std::printf("\ntrace delivery: pinned %.2f Gbps -> planned %.2f Gbps "
              "(%+.0f%%)\n",
              base, planned, (planned / base - 1.0) * 100.0);
  std::printf("the whole loop -- characterize, cache, load, plan, replay --\n"
              "never benchmarked more than one binding per class.\n");
  return 0;
}
