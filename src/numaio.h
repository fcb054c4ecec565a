// numaio — umbrella header for the public API surface.
//
// Including this single header gives a consumer the whole stable library:
// topology presets, the calibrated fabric machine, memory and I/O
// benchmarks, the paper's characterization models (Algorithm 1,
// classification, prediction, scheduling), fault injection, and the
// observability layer (tracing + metrics). Tools and examples in this
// repo include only this header; the per-directory headers remain
// available for consumers who want finer-grained includes, but the set
// re-exported here is the supported surface.
//
// Layering (see src/CMakeLists.txt): obs -> simcore -> topo -> fabric ->
// faults -> nm -> {mem, io} -> model -> fleet. This header includes
// bottom-up so the include order documents the dependency order.
#pragma once

// Observability: structured tracing, metrics registry, scoped timers,
// the streaming record-source core, trace analysis (critical path,
// contention), exporters (Chrome trace JSON for Perfetto, Prometheus
// text exposition), the profiling layer (folded stacks, scheduler
// tail-latency histograms) and the live telemetry serve mode; and
// obs::text::parse_number, the number grammar of every text input.
#include "obs/analysis.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "obs/profile.h"
#include "obs/serve.h"
#include "obs/stream.h"
#include "obs/text.h"

// Simulation core: units, RNG, statistics, retry policy and status codes.
#include "simcore/fluid_sim.h"
#include "simcore/retry.h"
#include "simcore/rng.h"
#include "simcore/stats.h"
#include "simcore/status.h"
#include "simcore/units.h"

// NUMA topology: graphs, presets, routing, latency.
#include "topo/latency.h"
#include "topo/presets.h"
#include "topo/routing.h"
#include "topo/topology.h"

// Fabric: calibrated machine, path matrices, contention solver.
#include "fabric/calibration.h"
#include "fabric/machine.h"
#include "fabric/path_matrix.h"

// Fault injection: plans and the injector.
#include "faults/fault_plan.h"
#include "faults/injector.h"

// numactl/libnuma-style host views: allocation, policies, SLIT, numastat.
#include "nm/host.h"
#include "nm/hwloc_view.h"
#include "nm/numastat.h"
#include "nm/policy.h"
#include "nm/slit.h"

// Memory benchmarks: STREAM, copy, matrices, numademo.
#include "mem/copy.h"
#include "mem/membench.h"
#include "mem/numademo.h"
#include "mem/stream.h"

// I/O: PCIe devices, fio-style runner, job files, traces, testbed.
#include "io/device.h"
#include "io/fio.h"
#include "io/hostpair.h"
#include "io/jobfile.h"
#include "io/nic.h"
#include "io/ssd.h"
#include "io/testbed.h"
#include "io/trace.h"

// Models: Algorithm 1 characterization, classification, prediction,
// scheduling (robust + online), validation, analysis, reporting.
#include "model/analysis.h"
#include "model/asymmetry.h"
#include "model/baselines.h"
#include "model/characterize.h"
#include "model/classify.h"
#include "model/crossval.h"
#include "model/inference.h"
#include "model/iomodel.h"
#include "model/mitigate.h"
#include "model/online.h"
#include "model/perf_report.h"
#include "model/predictor.h"
#include "model/report.h"
#include "model/scheduler.h"
#include "model/validate.h"
#include "model/workload.h"

// Fleet serving core: admission control, overload shedding, per-host
// circuit breakers, host-failure recovery.
#include "fleet/admission.h"
#include "fleet/breaker.h"
#include "fleet/fleet.h"
