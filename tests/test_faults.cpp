// Fault subsystem tests: plan validation, seeded-plan determinism,
// injector transition scheduling, pure state queries, machine restoration
// and — the headline guarantee — byte-identical traces and results across
// same-seed runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "simcore/status.h"
#include "io/fio.h"
#include "io/nic.h"
#include "io/testbed.h"

namespace numaio::faults {
namespace {

FaultEvent mc_throttle(NodeId node, sim::Ns start, sim::Ns dur, double sev) {
  FaultEvent e;
  e.kind = FaultKind::kMcThrottle;
  e.node = node;
  e.start = start;
  e.duration = dur;
  e.severity = sev;
  return e;
}

FaultEvent link_degrade(NodeId src, NodeId dst, sim::Ns start, sim::Ns dur,
                        double sev) {
  FaultEvent e;
  e.kind = FaultKind::kLinkDegrade;
  e.src = src;
  e.dst = dst;
  e.start = start;
  e.duration = dur;
  e.severity = sev;
  return e;
}

FaultEvent noise(sim::Ns start, sim::Ns dur, double amp_minus_one) {
  FaultEvent e;
  e.kind = FaultKind::kMeasureNoise;
  e.start = start;
  e.duration = dur;
  e.severity = amp_minus_one;
  return e;
}

// Severity defaults to the FaultEvent default: crash/hang ignore it and
// the renderer omits it for them, so a round-tripped event keeps the
// default value.
FaultEvent host_event(FaultKind kind, int host, sim::Ns start, sim::Ns dur,
                      double sev = 0.5) {
  FaultEvent e;
  e.kind = kind;
  e.host = host;
  e.start = start;
  e.duration = dur;
  e.severity = sev;
  return e;
}

TEST(FaultPlanTest, KindNames) {
  EXPECT_STREQ(to_string(FaultKind::kLinkDegrade), "link-degrade");
  EXPECT_STREQ(to_string(FaultKind::kLinkFlap), "link-flap");
  EXPECT_STREQ(to_string(FaultKind::kMcThrottle), "mc-throttle");
  EXPECT_STREQ(to_string(FaultKind::kDeviceStall), "device-stall");
  EXPECT_STREQ(to_string(FaultKind::kIrqStorm), "irq-storm");
  EXPECT_STREQ(to_string(FaultKind::kMeasureNoise), "measure-noise");
  EXPECT_STREQ(to_string(FaultKind::kHostCrash), "host-crash");
  EXPECT_STREQ(to_string(FaultKind::kHostHang), "host-hang");
  EXPECT_STREQ(to_string(FaultKind::kHostRecover), "host-recover");
}

TEST(FaultPlanTest, RandomPlanIsDeterministic) {
  RandomPlanConfig config;
  config.seed = 99;
  config.num_nodes = 8;
  config.num_devices = 3;
  const FaultPlan a = FaultPlan::random(config);
  const FaultPlan b = FaultPlan::random(config);
  EXPECT_EQ(render_fault_plan(a), render_fault_plan(b));
  EXPECT_EQ(a.events().size(), 4u);  // default num_events
  RandomPlanConfig other = config;
  other.seed = 100;
  const FaultPlan c = FaultPlan::random(other);
  EXPECT_NE(render_fault_plan(a), render_fault_plan(c));
}

TEST(FaultPlanTest, RandomPlanSkipsDeviceStallsWithoutDevices) {
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    RandomPlanConfig config;
    config.seed = seed;
    config.num_nodes = 8;
    config.num_events = 12;
    const FaultPlan plan = FaultPlan::random(config);
    for (const FaultEvent& e : plan.events()) {
      EXPECT_NE(e.kind, FaultKind::kDeviceStall);
    }
    plan.validate(8, 0);  // must not throw
  }
}

TEST(FaultPlanTest, RandomPlanRejectsUnusableConfig) {
  // Twelve events on 8 nodes draw link kinds, whose flap count is
  // 1 + below(max_flaps): max_flaps = 0 once divided by zero (SIGFPE),
  // and -1 wrapped to a 2^64 - 1 bound.
  RandomPlanConfig config;
  config.seed = 1;
  config.num_nodes = 8;
  config.num_events = 12;
  EXPECT_NO_THROW(FaultPlan::random(config));
  const auto rejects = [](RandomPlanConfig bad, const std::string& field) {
    try {
      FaultPlan::random(bad);
      ADD_FAILURE() << "accepted a bad " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  RandomPlanConfig one_node = config;
  one_node.num_nodes = 1;
  rejects(one_node, "nodes");
  for (const int flaps : {0, -1}) {
    RandomPlanConfig no_flaps = config;
    no_flaps.max_flaps = flaps;
    rejects(no_flaps, "max_flaps");
  }
}

TEST(FaultPlanTest, ValidateRejectsMalformedEvents) {
  {
    FaultPlan p;
    p.add(mc_throttle(5, -1.0, 1e9, 0.5));  // negative start
    EXPECT_THROW(p.validate(8, 0), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.add(mc_throttle(5, 0.0, 0.0, 0.5));  // zero duration
    EXPECT_THROW(p.validate(8, 0), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.add(mc_throttle(8, 0.0, 1e9, 0.5));  // node out of range
    EXPECT_THROW(p.validate(8, 0), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.add(link_degrade(3, 3, 0.0, 1e9, 0.5));  // src == dst
    EXPECT_THROW(p.validate(8, 0), std::invalid_argument);
  }
  {
    FaultPlan p;
    p.add(mc_throttle(5, 0.0, 1e9, 1.5));  // severity > 1
    EXPECT_THROW(p.validate(8, 0), std::invalid_argument);
  }
  {
    FaultPlan p;
    FaultEvent e;
    e.kind = FaultKind::kDeviceStall;
    e.device = 1;  // only device 0 exists
    e.start = 0.0;
    e.duration = 1e9;
    p.add(e);
    EXPECT_THROW(p.validate(8, 1), std::invalid_argument);
  }
  {
    FaultPlan p;
    FaultEvent e = link_degrade(0, 1, 0.0, 1e9, 0.5);
    e.kind = FaultKind::kLinkFlap;
    e.flaps = 0;  // flap count must be >= 1
    p.add(e);
    EXPECT_THROW(p.validate(8, 0), std::invalid_argument);
  }
  // Non-finite severities. A '<' or '>' range check lets NaN through: the
  // link would reach the solver with a NaN capacity.
  const double nan = std::nan("");
  for (const FaultEvent& e :
       {link_degrade(0, 1, 0.0, 1e9, nan), noise(0.0, 1e9, nan),
        noise(0.0, 1e9, std::numeric_limits<double>::infinity())}) {
    FaultPlan p;
    p.add(e);
    EXPECT_THROW(p.validate(8, 0), std::invalid_argument)
        << to_string(e.kind) << " sev " << e.severity;
  }
}

TEST(FaultInjectorTest, TransitionTimesAndActivityWindows) {
  io::Testbed tb = io::Testbed::dl585();
  FaultPlan plan;
  plan.add(mc_throttle(5, 1.0e9, 2.0e9, 0.5));
  FaultInjector injector(tb.machine(), std::move(plan));

  EXPECT_DOUBLE_EQ(injector.next_transition_after(0.0), 1.0e9);
  EXPECT_DOUBLE_EQ(injector.next_transition_after(1.0e9), 3.0e9);
  EXPECT_TRUE(std::isinf(injector.next_transition_after(3.0e9)));

  EXPECT_FALSE(injector.any_capacity_fault_active(0.5e9));
  EXPECT_TRUE(injector.any_capacity_fault_active(2.0e9));
  EXPECT_FALSE(injector.any_capacity_fault_active(3.5e9));
}

TEST(FaultInjectorTest, DegradedNodesAreSortedAndUnique) {
  io::Testbed tb = io::Testbed::dl585();
  FaultPlan plan;
  plan.add(mc_throttle(5, 0.0, 10.0e9, 0.5));
  plan.add(link_degrade(2, 5, 0.0, 10.0e9, 0.5));  // 5 appears twice
  FaultInjector injector(tb.machine(), std::move(plan));
  const std::vector<NodeId> degraded = injector.degraded_nodes(1.0e9);
  EXPECT_EQ(degraded, (std::vector<NodeId>{2, 5}));
  EXPECT_TRUE(injector.degraded_nodes(20.0e9).empty());
}

TEST(FaultInjectorTest, NoiseAmplificationComposesMultiplicatively) {
  io::Testbed tb = io::Testbed::dl585();
  FaultPlan plan;
  plan.add(noise(0.0, 4.0e9, 1.0));   // amp 2x over [0, 4s)
  plan.add(noise(2.0e9, 4.0e9, 0.5));  // amp 1.5x over [2s, 6s)
  FaultInjector injector(tb.machine(), std::move(plan));
  EXPECT_DOUBLE_EQ(injector.noise_amplification(1.0e9), 2.0);
  EXPECT_DOUBLE_EQ(injector.noise_amplification(3.0e9), 3.0);
  EXPECT_DOUBLE_EQ(injector.noise_amplification(5.0e9), 1.5);
  EXPECT_DOUBLE_EQ(injector.noise_amplification(7.0e9), 1.0);
  // Noise never counts as a capacity fault.
  EXPECT_FALSE(injector.any_capacity_fault_active(3.0e9));
}

TEST(FaultInjectorTest, DeviceRegistrationAndStallQueries) {
  io::Testbed tb = io::Testbed::dl585();
  FaultPlan plan;
  FaultEvent e;
  e.kind = FaultKind::kDeviceStall;
  e.device = 0;
  e.start = 2.0e9;
  e.duration = 1.0e9;
  plan.add(e);
  FaultInjector injector(tb.machine(), std::move(plan));
  const int idx = injector.register_device(tb.nic().name(),
                                           tb.nic().attach_node(),
                                           tb.nic().fault_resources());
  EXPECT_EQ(idx, 0);
  EXPECT_EQ(injector.device_index(tb.nic().name()), 0);
  EXPECT_EQ(injector.device_index("no-such-device"), -1);
  EXPECT_FALSE(injector.device_stalled(0, 1.0e9));
  EXPECT_TRUE(injector.device_stalled(0, 2.5e9));
  EXPECT_FALSE(injector.device_stalled(0, 3.5e9));
  // The stalled device's attach node reads as degraded.
  const auto degraded = injector.degraded_nodes(2.5e9);
  EXPECT_TRUE(std::binary_search(degraded.begin(), degraded.end(),
                                 tb.nic().attach_node()));
}

TEST(FaultInjectorTest, FlapAppliesOnePairPerDeadWindow) {
  io::Testbed tb = io::Testbed::dl585();
  FaultPlan plan;
  FaultEvent e = link_degrade(0, 1, 1.0e9, 6.0e9, 1.0);
  e.kind = FaultKind::kLinkFlap;
  e.flaps = 3;
  plan.add(e);
  FaultInjector injector(tb.machine(), std::move(plan));
  injector.advance_to(100.0e9);
  const std::string trace = injector.trace_to_string();
  const auto lines = std::count(trace.begin(), trace.end(), '\n');
  EXPECT_EQ(lines, 6);  // three on/off pairs
  injector.restore();
}

/// One event of each kind, in kind order, each in its own window.
FaultPlan one_of_each_kind() {
  FaultPlan plan;
  plan.add(link_degrade(0, 2, 1.0e9, 1.0e9, 0.25));
  FaultEvent flap = link_degrade(1, 3, 2.0e9, 2.0e9, 1.0);
  flap.kind = FaultKind::kLinkFlap;
  flap.flaps = 2;
  plan.add(flap);
  plan.add(mc_throttle(4, 3.0e9, 1.0e9, 0.5));
  FaultEvent stall;
  stall.kind = FaultKind::kDeviceStall;
  stall.device = 0;
  stall.start = 4.0e9;
  stall.duration = 0.5e9;
  plan.add(stall);
  FaultEvent storm = mc_throttle(5, 5.0e9, 1.0e9, 0.3);
  storm.kind = FaultKind::kIrqStorm;
  plan.add(storm);
  plan.add(noise(6.0e9, 1.0e9, 2.5));
  plan.add(host_event(FaultKind::kHostCrash, 1, 7.0e9, 1.0e9));
  plan.add(host_event(FaultKind::kHostHang, 2, 8.0e9, 0.5e9));
  plan.add(host_event(FaultKind::kHostRecover, 1, 9.0e9, 1.0e9, 0.4));
  return plan;
}

TEST(FaultInjectorTest, TraceLinesArePinnedForEveryKind) {
  io::Testbed tb = io::Testbed::dl585();
  FaultInjector injector(tb.machine(), one_of_each_kind());
  injector.register_device(tb.nic().name(), tb.nic().attach_node(),
                           tb.nic().fault_resources());
  injector.advance_to(20.0e9);
  EXPECT_EQ(injector.trace_to_string(),
            "t=      1.000000s link-degrade  0>2 on (scale 0.75)\n"
            "t=      2.000000s link-degrade  0>2 off (scale 1.00)\n"
            "t=      2.000000s link-flap     1>3 down (1/2)\n"
            "t=      2.500000s link-flap     1>3 up (1/2)\n"
            "t=      3.000000s link-flap     1>3 down (2/2)\n"
            "t=      3.000000s mc-throttle   node 4 on (scale 0.50)\n"
            "t=      3.500000s link-flap     1>3 up (2/2)\n"
            "t=      4.000000s mc-throttle   node 4 off (scale 1.00)\n"
            "t=      4.000000s device-stall  device 0 (mlx4_0) on\n"
            "t=      4.500000s device-stall  device 0 (mlx4_0) off\n"
            "t=      5.000000s irq-storm     node 5 on (scale 0.70)\n"
            "t=      6.000000s irq-storm     node 5 off (scale 1.00)\n"
            "t=      6.000000s measure-noise on (amp 3.50x)\n"
            "t=      7.000000s measure-noise off (amp 1.00x)\n"
            "t=      7.000000s host-crash    host 1 on\n"
            "t=      8.000000s host-crash    host 1 off\n"
            "t=      8.000000s host-hang     host 2 on\n"
            "t=      8.500000s host-hang     host 2 off\n"
            "t=      9.000000s host-recover  host 1 on (scale 0.60)\n"
            "t=     10.000000s host-recover  host 1 off (scale 1.00)\n");
}

TEST(FaultInjectorTest, RestoreReturnsTheMachineToHealthy) {
  io::Testbed tb = io::Testbed::dl585();
  io::FioJob job;
  job.devices = {&tb.nic()};
  job.engine = io::kRdmaRead;
  job.cpu_node = 2;
  job.num_streams = 2;
  job.bytes_per_stream = 4 * sim::kGiB;

  io::FioRunner fio(tb.host());
  const double healthy = fio.run(job).aggregate;

  FaultPlan plan;
  plan.add(mc_throttle(2, 0.0, 1.0e12, 0.9));
  FaultInjector injector(tb.machine(), std::move(plan));
  injector.advance_to(10.0e9);
  injector.restore();

  EXPECT_DOUBLE_EQ(fio.run(job).aggregate, healthy);
}

TEST(FaultInjectorTest, SameSeedRunsAreByteIdentical) {
  auto run_once = [](std::string* trace) {
    io::Testbed tb = io::Testbed::dl585();
    RandomPlanConfig config;
    config.seed = 42;
    config.num_nodes = tb.machine().num_nodes();
    config.num_devices = 1;
    FaultPlan plan = FaultPlan::random(config);
    FaultInjector injector(tb.machine(), std::move(plan));
    injector.register_device(tb.nic().name(), tb.nic().attach_node(),
                             tb.nic().fault_resources());
    io::FioJob job;
    job.devices = {&tb.nic()};
    job.engine = io::kRdmaRead;
    job.cpu_node = 2;
    job.num_streams = 4;
    job.bytes_per_stream = 40 * sim::kGiB;
    job.retry.timeout = 30.0e9;
    io::FioRunner fio(tb.host());
    fio.set_fault_injector(&injector);
    const io::FioResult result = fio.run(job);
    *trace = injector.trace_to_string();
    return result;
  };
  std::string trace_a, trace_b;
  const io::FioResult a = run_once(&trace_a);
  const io::FioResult b = run_once(&trace_b);
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_FALSE(trace_a.empty());
  EXPECT_EQ(a.aggregate, b.aggregate);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.aborted_streams, b.aborted_streams);
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t s = 0; s < a.streams.size(); ++s) {
    EXPECT_EQ(a.streams[s].avg_rate, b.streams[s].avg_rate) << s;
    EXPECT_EQ(a.streams[s].bytes_moved, b.streams[s].bytes_moved) << s;
    EXPECT_EQ(a.streams[s].outcome.retries, b.streams[s].outcome.retries)
        << s;
    EXPECT_EQ(a.streams[s].outcome.confidence,
              b.streams[s].outcome.confidence)
        << s;
  }
}

// --- fault-plan file format (docs/FORMATS.md §6) -------------------------

TEST(FaultPlanFileTest, HostKindsRoundTripExactly) {
  FaultPlan plan;
  plan.add(host_event(FaultKind::kHostCrash, 1, 0.3e9, 0.25e9));
  plan.add(host_event(FaultKind::kHostHang, 0, 0.123456789e9, 1.0e9 / 3.0));
  plan.add(host_event(FaultKind::kHostRecover, 1, 0.55e9, 0.2e9, 0.5));
  plan.add(mc_throttle(3, 1.0e9, 2.0e9, 0.75));
  plan.add(link_degrade(0, 7, 0.5e9, 1.5e9, 0.9));
  // And every other kind, each with the fields only it uses.
  const FaultPlan others = one_of_each_kind();
  for (const FaultEvent& e : others.events()) plan.add(e);
  plan.add(noise(0.1e9, 0.7e9, 1.0 / 7.0));

  const std::string text = render_fault_plan(plan);
  const FaultPlan parsed = parse_fault_plan(text);
  ASSERT_EQ(parsed.events().size(), plan.events().size());
  for (std::size_t i = 0; i < plan.events().size(); ++i) {
    const FaultEvent& a = plan.events()[i];
    const FaultEvent& b = parsed.events()[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.host, b.host) << i;
    EXPECT_EQ(a.node, b.node) << i;
    EXPECT_EQ(a.src, b.src) << i;
    EXPECT_EQ(a.dst, b.dst) << i;
    EXPECT_EQ(a.device, b.device) << i;
    // Bit-exact: the renderer picks the shortest representation that
    // reads back to the same double, so times and severities survive
    // unchanged. A kind that ignores a field keeps its default.
    EXPECT_EQ(a.start, b.start) << i;
    EXPECT_EQ(a.duration, b.duration) << i;
    const FaultKindInfo& kind = kind_info(a.kind);
    EXPECT_EQ(b.severity,
              kind.severity == FaultSeverity::kNone ? 0.5 : a.severity)
        << i;
    EXPECT_EQ(b.flaps, kind.flaps ? a.flaps : 1) << i;
  }
  // Idempotent: render(parse(render(p))) == render(p).
  EXPECT_EQ(render_fault_plan(parsed), text);
}

TEST(FaultPlanFileTest, ParserAcceptsCommentsSuffixesAndBlankLines) {
  const FaultPlan plan = parse_fault_plan(
      "# comment-only line\n"
      "\n"
      "host-crash host=1 start=1500ms dur=2s   # trailing comment\n"
      "host-hang host=0 start=250000us dur=1000000000ns\n");
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kHostCrash);
  EXPECT_DOUBLE_EQ(plan.events()[0].start, 1.5e9);
  EXPECT_DOUBLE_EQ(plan.events()[0].duration, 2.0e9);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kHostHang);
  EXPECT_DOUBLE_EQ(plan.events()[1].start, 0.25e9);
  EXPECT_DOUBLE_EQ(plan.events()[1].duration, 1.0e9);
}

TEST(FaultPlanFileTest, DuplicateKeyIsAParseError) {
  try {
    parse_fault_plan("host-crash host=1 host=2 start=0.1 dur=0.2\n");
    FAIL() << "duplicate key accepted";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kParse);
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
  }
}

TEST(FaultPlanFileTest, MissingRequiredKeyAndUnknownKindAreParseErrors) {
  EXPECT_THROW(parse_fault_plan("host-crash start=0.1 dur=0.2\n"),
               StatusError);
  EXPECT_THROW(parse_fault_plan("host-crash host=1 dur=0.2\n"), StatusError);
  EXPECT_THROW(parse_fault_plan("host-melt host=1 start=0.1 dur=0.2\n"),
               StatusError);
  EXPECT_THROW(parse_fault_plan("host-crash host=one start=0.1 dur=0.2\n"),
               StatusError);
}

void expect_parse_error(const std::string& text, const std::string& line,
                        const std::string& key) {
  try {
    parse_fault_plan(text);
    FAIL() << "accepted: " << text;
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kParse);
    const std::string what = e.what();
    EXPECT_NE(what.find(line), std::string::npos) << what;
    EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
  }
}

TEST(FaultPlanFileTest, KeyTheKindDoesNotTakeIsAParseError) {
  // One case per target. Each parsed before, and the parser dropped the
  // key: --print-plan showed the events without it.
  expect_parse_error("host-crash host=1 start=0.5s dur=400ms sev=0.9\n",
                     "line 1", "sev");
  expect_parse_error("mc-throttle node=1 start=0.1 dur=0.2\n"
                     "device-stall device=0 start=0.1 dur=0.2 sev=0.5\n",
                     "line 2", "sev");
  expect_parse_error("link-degrade src=0 dst=2 start=1s dur=1s flaps=9\n",
                     "line 1", "flaps");
  expect_parse_error("measure-noise start=0.1 dur=0.2 sev=2 node=3\n",
                     "line 1", "node");
  expect_parse_error("mc-throttle node=1 start=0.1 dur=0.2 host=7\n",
                     "line 1", "host");
  // The optional keys stay optional where they belong.
  const FaultPlan plan = parse_fault_plan(
      "link-flap src=0 dst=1 start=0.1 dur=0.2\n"
      "host-recover host=1 start=0.1 dur=0.2\n");
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].flaps, 1);
  EXPECT_EQ(plan.events()[1].severity, 0.5);
}

TEST(FaultPlanFileTest, OutOfRangeIntegerIsAParseError) {
  // 2^32 + 1 used to wrap to host 1 and pass validation for a 4-host
  // fleet: the plan crashed a host it never named.
  expect_parse_error("host-crash host=4294967297 start=0.1 dur=0.2\n",
                     "line 1", "host");
  expect_parse_error(
      "host-crash host=99999999999999999999 start=0.1 dur=0.2\n", "line 1",
      "host");
  expect_parse_error(
      "mc-throttle node=1 start=0.1 dur=0.2\n"
      "link-flap src=0 dst=1 flaps=-2147483649 start=0.1 dur=0.2\n",
      "line 2", "flaps");
  // int's own limits still parse (validate() judges them).
  const FaultPlan plan = parse_fault_plan(
      "link-degrade src=2147483647 dst=-2147483648 start=0.1 dur=0.2\n");
  ASSERT_EQ(plan.events().size(), 1u);
  EXPECT_EQ(plan.events()[0].src, 2147483647);
  EXPECT_EQ(plan.events()[0].dst, -2147483647 - 1);
}

TEST(FaultPlanFileTest, TimeThatOverflowsIsAParseError) {
  // Finite in seconds, infinite in nanoseconds: it would render as
  // "infns", which no parser reads back.
  expect_parse_error("host-hang host=0 start=1e300s dur=0.2\n", "line 1",
                     "start");
  expect_parse_error("host-hang host=0 start=0.1 dur=-1e306ms\n", "line 1",
                     "dur");
}

TEST(FaultPlanFileTest, ZeroDurationParsesButFailsValidation) {
  // The parser is syntax-only; the zero-length window is caught by
  // validate(), exactly like a programmatically-built plan.
  const FaultPlan plan =
      parse_fault_plan("host-crash host=0 start=0.5 dur=0\n");
  ASSERT_EQ(plan.events().size(), 1u);
  EXPECT_DOUBLE_EQ(plan.events()[0].duration, 0.0);
  EXPECT_THROW(plan.validate(8, 0, 4), std::invalid_argument);
}

TEST(FaultPlanFileTest, OverlappingHostWindowsValidateAndCompose) {
  // Overlapping windows on one host are legal. Host 0 crashes over
  // [1, 3) and [2, 5) s, so it is down for their union; it hangs over
  // [4, 6) s, and warms up over [5.5, 8) s at 0.5 and [7, 9) s at 0.75.
  // Host 1 only warms up.
  FaultPlan plan;
  plan.add(host_event(FaultKind::kHostCrash, 0, 1.0e9, 2.0e9));
  plan.add(host_event(FaultKind::kHostCrash, 0, 2.0e9, 3.0e9));
  plan.add(host_event(FaultKind::kHostHang, 0, 4.0e9, 2.0e9));
  plan.add(host_event(FaultKind::kHostRecover, 0, 5.5e9, 2.5e9, 0.5));
  plan.add(host_event(FaultKind::kHostRecover, 0, 7.0e9, 2.0e9, 0.75));
  plan.add(host_event(FaultKind::kHostRecover, 1, 2.0e9, 1.0e9, 0.25));
  EXPECT_NO_THROW(plan.validate(8, 0, 2));
  const FaultPlan parsed = parse_fault_plan(render_fault_plan(plan));
  io::Testbed tb = io::Testbed::dl585();
  FaultInjector injector(tb.machine(), parsed);
  EXPECT_FALSE(injector.host_crashed(0, 0.5e9));
  EXPECT_TRUE(injector.host_crashed(0, 1.5e9));
  EXPECT_TRUE(injector.host_crashed(0, 2.5e9));  // inside both windows
  EXPECT_TRUE(injector.host_crashed(0, 4.5e9));  // second window only
  EXPECT_FALSE(injector.host_crashed(0, 5.5e9));  // hung, not crashed
  EXPECT_FALSE(injector.host_crashed(1, 1.5e9));
  // host_factor: 0 while crashed or hung, else the warm-up product.
  EXPECT_EQ(injector.host_factor(0, 0.5e9), 1.0);
  EXPECT_EQ(injector.host_factor(0, 2.5e9), 0.0);   // both crashes
  EXPECT_EQ(injector.host_factor(0, 4.5e9), 0.0);   // crashed and hung
  EXPECT_EQ(injector.host_factor(0, 5.2e9), 0.0);   // hung
  EXPECT_EQ(injector.host_factor(0, 5.7e9), 0.0);   // hung while warming
  EXPECT_EQ(injector.host_factor(0, 6.5e9), 0.5);
  EXPECT_EQ(injector.host_factor(0, 7.5e9), 0.125);  // both warm-ups
  EXPECT_EQ(injector.host_factor(0, 8.5e9), 0.25);
  EXPECT_EQ(injector.host_factor(0, 9.0e9), 1.0);   // windows are half-open
  EXPECT_EQ(injector.host_factor(1, 1.5e9), 1.0);   // host 0's faults only
  EXPECT_EQ(injector.host_factor(1, 2.5e9), 0.75);
}

TEST(FaultPlanFileTest, HostIndexRangeIsValidatesJob) {
  const FaultPlan plan =
      parse_fault_plan("host-recover host=5 start=0.1 dur=0.2 sev=0.5\n");
  EXPECT_NO_THROW(plan.validate(8, 0, /*num_hosts=*/-1));  // lazy bound
  EXPECT_THROW(plan.validate(8, 0, /*num_hosts=*/4), std::invalid_argument);
}

}  // namespace
}  // namespace numaio::faults
