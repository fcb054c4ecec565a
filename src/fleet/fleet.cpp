#include "fleet/fleet.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <utility>

#include <deque>

#include "faults/injector.h"
#include "fleet/admission.h"
#include "fleet/placement.h"
#include "io/fio.h"
#include "io/nic.h"
#include "io/testbed.h"
#include "model/online.h"
#include "simcore/alarm_engine.h"
#include "simcore/rng.h"
#include "simcore/stats.h"

namespace numaio::fleet {

namespace {
/// Flow-completion slack: remaining bytes below this count as done
/// (absorbs float rounding in rate * dt integration).
constexpr double kDoneBytes = 0.5;
/// Deadline comparisons tolerate this much float skew (1 us).
constexpr sim::Ns kTimeEps = 1.0e3;
}  // namespace

Status admission_status(bool admitted, const std::string& reason) {
  if (admitted) return Status{};
  return Status{StatusCode::kOverloaded, reason};
}

Status FleetConfig::validate() const {
  const auto usage = [](const char* message) {
    return Status{StatusCode::kUsage, message};
  };
  if (num_hosts < 1) return usage("fleet needs at least one host");
  if (queue_depth < 1 || max_inflight_per_host < 1) {
    return usage("queue depth and per-host inflight must be >= 1");
  }
  if (alt_sku_every < 0) return usage("alt SKU cadence must be >= 0");
  if (completion_grid < 0.0) return usage("completion grid must be >= 0");
  if (batch_window < 0.0) return usage("batch window must be >= 0");
  if (batch_window > 0.0 && batch_window >= deadline) {
    return usage("batch window must be shorter than the deadline");
  }
  if (summary_refresh <= 0.0) return usage("summary refresh must be > 0");
  return Status{};
}

FleetSim::FleetSim(FleetConfig config, std::vector<TenantSpec> tenants)
    : config_(config), tenants_(std::move(tenants)) {
  const Status status = config_.validate();
  if (!status.ok()) throw StatusError(status);
  if (tenants_.empty()) {
    throw StatusError(StatusCode::kUsage, "fleet needs at least one tenant");
  }
}

FleetSim::~FleetSim() = default;

void FleetSim::set_fault_plan(faults::FaultPlan plan) {
  plan_ = std::move(plan);
}

void FleetSim::set_observer(obs::Context* obs) { obs_ = obs; }

namespace {

/// One request's lifetime state. Lives in a stable-address arena for the
/// whole run; event callbacks hold (id, generation) pairs, never pointers
/// into containers that may reallocate.
struct Request {
  int id = 0;
  int tenant = 0;
  int priority = 0;
  sim::Ns submit = 0.0;
  sim::Ns admitted_at = 0.0;  ///< When admission said yes (epoch drain).
  sim::Ns deadline_at = 0.0;
  sim::Bytes bytes = 0;
  const char* engine = io::kTcpSend;
  int attempts = 0;
  /// Bumped whenever the attempt state changes; timeout events captured an
  /// older generation become no-ops.
  int generation = 0;
  bool done = false;
  bool queued = false;
  bool inflight = false;
  bool probe = false;   ///< Current attempt is a half-open breaker probe.
  int host = -1;
  topo::NodeId node = -1;
  sim::FlowId flow = 0;
  double remaining = 0.0;  ///< Bytes left in the current attempt.
};

struct HostState {
  std::unique_ptr<io::Testbed> tb;
  std::unique_ptr<model::OnlineScheduler> sched;
  CircuitBreaker breaker;
  std::vector<Request*> inflight;
  sim::Ns last_advance = 0.0;
  /// Bumped on any change to the host's flow set or capacity factor;
  /// completion-projection events with a stale generation are no-ops.
  std::uint64_t projection = 0;
  int sku = 0;  ///< 0 = DL585, 1 = the lite SKU (alt_sku_every).
  /// This host's SKU's unloaded coarse capacity (Gbps) and class-1
  /// serve nodes — per host since a mixed fleet has per-SKU values.
  double coarse_capacity = 0.0;
  const std::vector<topo::NodeId>* serve_nodes = nullptr;
  /// Alarm-round scratch (DESIGN.md §13): the host's completion alarm
  /// advances the fluid state and parks finished requests here; the
  /// merge hook commits them in host order once the round is over.
  std::vector<Request*> finished;
  bool due = false;

  HostState(std::unique_ptr<io::Testbed> testbed, BreakerConfig breaker_cfg)
      : tb(std::move(testbed)), breaker(breaker_cfg) {}
};

/// Per-tenant state: arrival stream, quota bucket, retry budget, stats.
struct TenantRuntime {
  sim::Rng arrivals;
  TokenBucket bucket;
  int retry_budget;
  TenantStats stats;
  std::vector<double> latencies;
  TenantRuntime(sim::Rng rng, const TenantSpec& spec)
      : arrivals(rng),
        bucket(spec.quota_rate_per_s, spec.quota_burst),
        retry_budget(spec.retry_budget) {}
};

class FleetRuntime {
 public:
  FleetRuntime(const FleetConfig& config,
               const std::vector<TenantSpec>& tenants,
               const faults::FaultPlan& plan, obs::Context* obs)
      : config_(config),
        specs_(tenants),
        obs_(obs),
        queue_(config.queue_depth),
        placer_(config.num_hosts,
                PlacerConfig{/*rel_gap=*/0.08, config.summary_refresh}),
        backoff_rng_(sim::Rng(config.seed).fork(0x666c656574u, 1)),
        workload_rng_(sim::Rng(config.seed).fork(0x666c656574u, 2)) {
    build_hosts();
    engine_.set_alarm_handler(
        [this](const sim::AlarmEngine::Alarm& alarm) { on_alarm(alarm); });
    engine_.set_merge_hook([this](sim::Ns at) { on_merge(at); });
    for (std::size_t t = 0; t < specs_.size(); ++t) {
      tenants_.emplace_back(
          sim::Rng(config_.seed).fork(0x666c656574u, 0x100 + t), specs_[t]);
      tenants_.back().stats.name = specs_[t].name;
      tenants_.back().stats.priority = specs_[t].priority;
    }
    if (!plan.empty()) {
      try {
        plan.validate(hosts_[0].tb->host().num_configured_nodes(),
                      /*num_devices=*/0, config_.num_hosts);
      } catch (const StatusError&) {
        throw;
      } catch (const std::invalid_argument& e) {
        throw StatusError(StatusCode::kUsage, e.what());
      }
      injector_ = std::make_unique<faults::FaultInjector>(
          hosts_[0].tb->machine(), plan);
      // Machine-level kinds in the plan degrade host 0's fabric; its
      // scheduler steers chunk placement away from those nodes.
      hosts_[0].sched->set_fault_injector(injector_.get());
      injector_->set_observer(obs_);
      injector_->set_transition_handler(
          [this](const faults::FaultEvent& e, bool on, sim::Ns at) {
            if (e.kind == faults::FaultKind::kHostCrash && on) {
              on_host_crash(e.host, at);
            }
          });
    }
    register_metrics();
  }

  FleetReport run();

 private:
  // --- construction ------------------------------------------------------
  bool host_is_alt(int h) const {
    return config_.alt_sku_every > 0 &&
           h % config_.alt_sku_every == config_.alt_sku_every - 1;
  }

  void build_hosts() {
    // Hosts come in at most two SKUs (DL585 + the lite variant);
    // boot-time Algorithm 1 characterization runs once per SKU present
    // and the classification is shared by every host of that SKU.
    hosts_.reserve(static_cast<std::size_t>(config_.num_hosts));
    for (int h = 0; h < config_.num_hosts; ++h) {
      const bool alt = host_is_alt(h);
      hosts_.emplace_back(
          std::make_unique<io::Testbed>(alt ? io::Testbed::dl585_lite()
                                            : io::Testbed::dl585()),
          config_.breaker);
      hosts_.back().sku = alt ? 1 : 0;
      if (obs_ != nullptr) {
        // Metrics-only tap on each host's solver (solver.* families in
        // one fleet snapshot); no trace records, so trace bytes are
        // untouched.
        hosts_.back().tb->machine().solver().set_observer(obs_);
      }
    }
    model::OnlineConfig sched_cfg;
    sched_cfg.policy = model::OnlinePolicy::kModelAdaptive;
    for (int sku = 0; sku < 2; ++sku) {
      int first = -1;
      for (int h = 0; h < config_.num_hosts; ++h) {
        if (hosts_[static_cast<std::size_t>(h)].sku == sku) {
          first = h;
          break;
        }
      }
      if (first < 0) continue;
      io::Testbed& tb = *hosts_[static_cast<std::size_t>(first)].tb;
      const auto wm = model::build_iomodel(tb.host(), tb.device_node(),
                                           model::Direction::kDeviceWrite);
      const auto rm = model::build_iomodel(tb.host(), tb.device_node(),
                                           model::Direction::kDeviceRead);
      const auto wc = model::classify(wm, tb.machine().topology());
      const auto rc = model::classify(rm, tb.machine().topology());
      if (config_.service_model == ServiceModel::kCoarse ||
          config_.placement == PlacementPolicy::kClassSpread) {
        // Coarse service capacity: what max_inflight_per_host concurrent
        // class-1 TCP streams get from the max-min-fair solver on an
        // unloaded host of this SKU. One solve at build time; the flows
        // are removed again, so the probe is invisible to the run's own
        // rates.
        serve_nodes_[sku] = wc.classes[0];
        const std::vector<topo::NodeId>& nodes = serve_nodes_[sku];
        sim::FlowSolver& solver = tb.machine().solver();
        std::vector<sim::FlowId> probes;
        for (int i = 0; i < config_.max_inflight_per_host; ++i) {
          io::StreamSpec spec;
          spec.device = &tb.nic();
          spec.engine = io::kTcpSend;
          const topo::NodeId node =
              nodes[static_cast<std::size_t>(i) % nodes.size()];
          spec.cpu_node = node;
          spec.mem_node = node;
          const io::StreamShape shape = io::shape_stream(tb.machine(), spec);
          probes.push_back(solver.add_flow(shape.usages, shape.rate_cap));
        }
        const auto& rates = solver.solve();
        coarse_capacity_[sku] = 0.0;
        for (const sim::FlowId f : probes) coarse_capacity_[sku] += rates[f];
        solver.remove_flows(probes);
      }
      for (int h = 0; h < config_.num_hosts; ++h) {
        HostState& hs = hosts_[static_cast<std::size_t>(h)];
        if (hs.sku != sku) continue;
        hs.coarse_capacity = coarse_capacity_[sku];
        hs.serve_nodes = &serve_nodes_[sku];
        hs.sched = std::make_unique<model::OnlineScheduler>(
            hs.tb->host(), hs.tb->nic(), wc, rc, sched_cfg);
      }
    }
    for (int h = 0; h < config_.num_hosts; ++h) {
      hosts_[static_cast<std::size_t>(h)].breaker.set_transition_callback(
          [this, h](BreakerState from, BreakerState to, sim::Ns at,
                    const char* reason) {
            on_breaker_transition(h, from, to, at, reason);
          });
    }
  }

  void register_metrics() {
    if (obs_ == nullptr) return;
    obs::MetricsRegistry& m = obs_->metrics;
    m_requests_ = m.counter("fleet.requests");
    m_admitted_ = m.counter("fleet.admitted");
    m_rejected_ = m.counter("fleet.rejected_quota");
    m_shed_ = m.counter("fleet.shed");
    m_dispatches_ = m.counter("fleet.dispatches");
    m_timeouts_ = m.counter("fleet.timeouts");
    m_retries_ = m.counter("fleet.retries");
    m_replaced_ = m.counter("fleet.replaced");
    m_completed_ = m.counter("fleet.completed");
    m_failed_ = m.counter("fleet.failed");
    m_trips_ = m.counter("fleet.breaker_trips");
    g_queue_depth_ = m.gauge("fleet.queue_depth");
    g_breakers_open_ = m.gauge("fleet.breakers_open");
    g_goodput_ = m.gauge("fleet.goodput_rps");
    h_latency_ms_ = m.histogram(
        "fleet.latency_ms", {5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0,
                             800.0});
    m_batch_epochs_ = m.counter("fleet.batch_epochs");
    m_batch_admitted_ = m.counter("fleet.batch_admitted");
    m_batch_rejected_ = m.counter("fleet.batch_rejected");
    h_batch_arrivals_ = m.histogram(
        "fleet.batch_arrivals",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0});
    h_placement_ms_ = m.histogram(
        "fleet.placement_ms", {0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 250.0});
    m_place_spread_ = m.counter("placement.class_spread");
    m_place_fallback_ = m.counter("placement.class_fallback");
    m_summary_refreshes_ = m.counter("placement.summary_refreshes");
    g_class_count_ = m.gauge("placement.class_count");
    m_lane_events_ = m.counter("engine.lane_events");
    m_lane_rounds_ = m.counter("engine.lane_rounds");
  }

  // --- small helpers -----------------------------------------------------
  obs::TraceRecorder* trace() {
    return obs_ != nullptr && obs_->trace.enabled() ? &obs_->trace : nullptr;
  }
  obs::EventId fault_cause() const {
    return injector_ != nullptr ? injector_->last_transition_event() : 0;
  }
  std::string request_detail(const Request& req) const {
    return specs_[static_cast<std::size_t>(req.tenant)].name + " prio " +
           std::to_string(req.priority) + " req " + std::to_string(req.id);
  }
  void emit(const char* name, const Request& req, std::string_view outcome,
            obs::EventId cause, sim::Ns now) {
    if (trace() == nullptr) return;
    obs::EventFields fields;
    fields.t_sim = now;
    fields.node_a = req.host;
    fields.node_b = req.node;
    fields.bytes = static_cast<long long>(req.bytes);
    const std::string detail = request_detail(req);
    fields.detail = detail;
    trace()->event(name, run_span_, cause, outcome, fields);
  }
  void note_queue_depth() {
    const int depth = queue_.depth();
    max_queue_depth_ = std::max(max_queue_depth_, depth);
    if (obs_ != nullptr) obs_->metrics.set(g_queue_depth_, depth);
  }
  TenantRuntime& tenant_of(const Request& req) {
    return tenants_[static_cast<std::size_t>(req.tenant)];
  }

  /// Host service-rate multiplier: 0 while crashed or hung, the recovery
  /// warm-up factor otherwise.
  double host_factor(int h, sim::Ns t) const {
    if (injector_ == nullptr) return 1.0;
    if (injector_->host_crashed(h, t) || injector_->host_hung(h, t)) {
      return 0.0;
    }
    return injector_->host_capacity_factor(h, t);
  }

  // --- fluid progress per host ------------------------------------------
  void advance_host(int h, sim::Ns now) {
    HostState& hs = hosts_[static_cast<std::size_t>(h)];
    const sim::Ns dt = now - hs.last_advance;
    if (dt <= 0.0) {
      hs.last_advance = now;
      return;
    }
    // The factor is constant over (last_advance, now): every fault
    // transition advances all hosts before the injector mutates state.
    const double factor = host_factor(h, hs.last_advance);
    hs.last_advance = now;
    if (hs.inflight.empty() || factor <= 0.0) return;
    if (config_.service_model == ServiceModel::kCoarse) {
      // Processor sharing against the class-summary capacity: every
      // in-flight request gets an equal slice, no per-request solve.
      const double per_req =
          hs.coarse_capacity * factor /
          static_cast<double>(hs.inflight.size());
      for (Request* req : hs.inflight) {
        req->remaining -= per_req * dt / 8.0;
      }
      return;
    }
    const auto& rates = hs.tb->machine().solver().solve();
    for (Request* req : hs.inflight) {
      // Gbps -> bytes/ns is a /8 (bits/ns == Gbps).
      req->remaining -= rates[req->flow] * factor * dt / 8.0;
    }
  }

  /// Schedules the host's next flow completion (earliest projected finish
  /// under the current rates and capacity factor) as a completion alarm.
  /// With completion_grid > 0 the alarm rounds up to the next grid
  /// instant so completions across hosts share rounds.
  void reproject(int h, sim::Ns now) {
    HostState& hs = hosts_[static_cast<std::size_t>(h)];
    const std::uint64_t generation = ++hs.projection;
    const double factor = host_factor(h, now);
    if (hs.inflight.empty() || factor <= 0.0) return;
    sim::Ns eta = std::numeric_limits<double>::infinity();
    if (config_.service_model == ServiceModel::kCoarse) {
      const double bytes_per_ns =
          hs.coarse_capacity * factor /
          static_cast<double>(hs.inflight.size()) / 8.0;
      if (bytes_per_ns <= 0.0) return;
      for (const Request* req : hs.inflight) {
        const sim::Ns tt = std::max(req->remaining, 0.0) / bytes_per_ns;
        eta = std::min(eta, tt);
      }
    } else {
      const auto& rates = hs.tb->machine().solver().solve();
      for (const Request* req : hs.inflight) {
        const double bytes_per_ns = rates[req->flow] * factor / 8.0;
        if (bytes_per_ns <= 0.0) continue;
        const sim::Ns tt = std::max(req->remaining, 0.0) / bytes_per_ns;
        eta = std::min(eta, tt);
      }
    }
    if (!std::isfinite(eta)) return;
    sim::Ns at = now + eta;
    if (config_.completion_grid > 0.0) {
      at = std::ceil(at / config_.completion_grid) * config_.completion_grid;
      at = std::max(at, now);
    }
    engine_.schedule_alarm(h, at, generation);
  }

  /// First half of a completion alarm. Touches only this host's state —
  /// integrate progress, park finished requests — and leaves all
  /// publication (traces, metrics, breaker, re-dispatch) to on_merge.
  void on_alarm(const sim::AlarmEngine::Alarm& alarm) {
    const int h = alarm.host;
    HostState& hs = hosts_[static_cast<std::size_t>(h)];
    if (hs.projection != alarm.gen) return;  // superseded alarm
    advance_host(h, alarm.at);
    hs.due = true;
    for (Request* req : hs.inflight) {
      if (req->remaining <= kDoneBytes) hs.finished.push_back(req);
    }
  }

  /// Merge hook after each alarm round: commits every due host's
  /// finished requests in host order, reprojects the survivors, then
  /// re-dispatches freed capacity once.
  void on_merge(sim::Ns now) {
    bool any = false;
    for (int h = 0; h < config_.num_hosts; ++h) {
      HostState& hs = hosts_[static_cast<std::size_t>(h)];
      if (!hs.due) continue;
      hs.due = false;
      any = true;
      for (Request* req : hs.finished) complete_request(*req, now);
      hs.finished.clear();
      reproject(h, now);
    }
    if (any) try_dispatch(now);
  }

  // --- attempt lifecycle -------------------------------------------------
  void detach_attempt(Request& req) {
    HostState& hs = hosts_[static_cast<std::size_t>(req.host)];
    if (config_.service_model != ServiceModel::kCoarse) {
      hs.tb->machine().solver().remove_flow(req.flow);
      hs.sched->note_finish(req.node);
    }
    hs.inflight.erase(
        std::find(hs.inflight.begin(), hs.inflight.end(), &req));
    req.inflight = false;
    ++req.generation;
  }

  void start_attempt(Request& req, int h, bool probe, sim::Ns now) {
    HostState& hs = hosts_[static_cast<std::size_t>(h)];
    advance_host(h, now);
    ++req.attempts;
    ++req.generation;
    req.probe = probe;
    req.host = h;
    ++dispatches_;
    last_dispatch_ = now;
    if (obs_ != nullptr) obs_->metrics.add(m_dispatches_);

    if (injector_ != nullptr && injector_->host_crashed(h, now)) {
      // Connection refused: the control plane learns instantly, the
      // breaker counts it, and the request follows the retry path.
      emit("fleet.dispatch", req, "refused", fault_cause(), now);
      hs.breaker.on_failure(now, probe, "crash");
      handle_attempt_failure(req, now, fault_cause());
      return;
    }

    if (config_.service_model == ServiceModel::kCoarse) {
      // Coarse service: no per-request solver flow. Node choice is a
      // round-robin over the host's SKU classification's class-1 nodes —
      // the per-node distinction the fluid model resolves is below the
      // resolution the coarse capacity models.
      req.node = (*hs.serve_nodes)[node_rr_++ % hs.serve_nodes->size()];
    } else {
      const std::string engine_name(req.engine);
      req.node = hs.sched->place_request(engine_name, req.id, now);
      hs.sched->note_start(req.node);
      io::StreamSpec spec;
      spec.device = &hs.tb->nic();
      spec.engine = engine_name;
      spec.cpu_node = req.node;
      spec.mem_node = req.node;
      const io::StreamShape shape = io::shape_stream(hs.tb->machine(), spec);
      req.flow =
          hs.tb->machine().solver().add_flow(shape.usages, shape.rate_cap);
    }
    req.remaining = static_cast<double>(req.bytes);
    req.inflight = true;
    hs.inflight.push_back(&req);
    if (req.attempts == 1) {
      const sim::Ns wait = now - req.admitted_at;
      placement_lat_.push_back(wait);
      if (obs_ != nullptr) obs_->metrics.observe(h_placement_ms_, wait / 1e6);
    }
    emit("fleet.dispatch", req, "started", 0, now);

    const sim::Ns timeout_at =
        config_.retry.timeout > 0.0
            ? std::min(now + config_.retry.timeout, req.deadline_at)
            : req.deadline_at;
    const int generation = req.generation;
    const int id = req.id;
    engine_.schedule_at(timeout_at, [this, id, generation] {
      Request& r = requests_[static_cast<std::size_t>(id)];
      if (r.done || !r.inflight || r.generation != generation) return;
      on_attempt_timeout(r);
    });
    reproject(h, now);
  }

  void on_attempt_timeout(Request& req) {
    const sim::Ns now = engine_.now();
    const int h = req.host;
    advance_host(h, now);
    detach_attempt(req);
    reproject(h, now);
    HostState& hs = hosts_[static_cast<std::size_t>(h)];
    const bool fault_active =
        injector_ != nullptr &&
        (injector_->host_crashed(h, now) || injector_->host_hung(h, now) ||
         injector_->host_capacity_factor(h, now) < 1.0);
    const obs::EventId cause = fault_active ? fault_cause() : 0;
    if (obs_ != nullptr) obs_->metrics.add(m_timeouts_);
    emit("fleet.timeout", req, "timeout", cause, now);
    hs.breaker.on_failure(now, req.probe, "timeout");
    handle_attempt_failure(req, now, cause);
    try_dispatch(now);
  }

  void handle_attempt_failure(Request& req, sim::Ns now, obs::EventId cause) {
    TenantRuntime& tenant = tenant_of(req);
    if (now >= req.deadline_at - kTimeEps) {
      fail_request(req, now, "deadline", cause);
      return;
    }
    if (req.attempts > config_.retry.max_retries) {
      fail_request(req, now, "retries", cause);
      return;
    }
    if (tenant.retry_budget <= 0) {
      fail_request(req, now, "retry-budget", cause);
      return;
    }
    --tenant.retry_budget;
    ++tenant.stats.retries;
    ++retries_;
    if (obs_ != nullptr) obs_->metrics.add(m_retries_);
    const sim::Ns delay =
        sim::backoff_delay(config_.retry, req.attempts, backoff_rng_);
    if (now + delay >= req.deadline_at - kTimeEps) {
      fail_request(req, now, "deadline", cause);
      return;
    }
    emit("fleet.retry", req, "backoff", cause, now);
    const int id = req.id;
    const int generation = ++req.generation;
    engine_.schedule_at(now + delay, [this, id, generation] {
      Request& r = requests_[static_cast<std::size_t>(id)];
      if (r.done || r.generation != generation) return;
      enqueue(r, engine_.now());
      try_dispatch(engine_.now());
    });
  }

  void complete_request(Request& req, sim::Ns now) {
    detach_attempt(req);
    req.done = true;
    TenantRuntime& tenant = tenant_of(req);
    const sim::Ns latency = now - req.submit;
    ++tenant.stats.completed;
    tenant.latencies.push_back(latency);
    all_latencies_.push_back(latency);
    hosts_[static_cast<std::size_t>(req.host)].breaker.on_success(
        now, latency, req.probe);
    if (obs_ != nullptr) {
      obs_->metrics.add(m_completed_);
      obs_->metrics.observe(h_latency_ms_, latency / 1e6);
    }
    emit("fleet.complete", req, "ok", 0, now);
  }

  void fail_request(Request& req, sim::Ns now, const char* reason,
                    obs::EventId cause) {
    req.done = true;
    ++req.generation;
    ++tenant_of(req).stats.failed;
    if (obs_ != nullptr) obs_->metrics.add(m_failed_);
    emit("fleet.fail", req, reason, cause, now);
  }

  // --- admission / queue -------------------------------------------------
  void shed_request(Request& req, sim::Ns now) {
    req.queued = false;
    req.done = true;
    ++req.generation;
    ++tenant_of(req).stats.shed;
    if (obs_ != nullptr) obs_->metrics.add(m_shed_);
    emit("fleet.shed", req, "shed", fault_cause(), now);
  }

  void enqueue(Request& req, sim::Ns now) {
    const BoundedQueue::PushResult result =
        queue_.push(QueueItem{req.id, req.priority});
    if (result.shed) {
      Request& victim =
          requests_[static_cast<std::size_t>(result.victim.request)];
      shed_request(victim, now);
    }
    if (result.accepted && !(result.shed && result.victim.request == req.id)) {
      req.queued = true;
    }
    note_queue_depth();
  }

  void on_arrival(int t, sim::Ns now) {
    TenantRuntime& tenant = tenants_[static_cast<std::size_t>(t)];
    const TenantSpec& spec = specs_[static_cast<std::size_t>(t)];
    requests_.emplace_back();
    Request& req = requests_.back();
    req.id = static_cast<int>(requests_.size()) - 1;
    req.tenant = t;
    req.priority = spec.priority;
    req.submit = now;
    req.bytes = spec.request_bytes;
    req.engine =
        workload_rng_.below(2) == 0 ? io::kTcpSend : io::kTcpRecv;
    ++tenant.stats.submitted;
    if (obs_ != nullptr) obs_->metrics.add(m_requests_);

    if (config_.batch_window > 0.0) {
      // Batched admission: park the arrival until the epoch boundary.
      batch_ids_.push_back(req.id);
      arm_epoch(now);
    } else {
      const Status verdict = admission_status(tenant.bucket.try_take(now),
                                              "tenant quota exceeded");
      finish_admission(req, now, verdict.ok(), /*batched=*/false);
      if (verdict.ok()) try_dispatch(now);
    }
    schedule_arrival(t, now);
  }

  /// Applies one admission verdict: stats, metrics, the deadline event,
  /// and the queue push. Per-request mode also emits the fleet.admit /
  /// fleet.reject event; a batched epoch covers its whole burst with one
  /// fleet.admit_batch span instead. The deadline anchors to the
  /// original submit time, so batching never extends a deadline.
  void finish_admission(Request& req, sim::Ns now, bool admitted,
                        bool batched) {
    TenantRuntime& tenant = tenant_of(req);
    if (!admitted) {
      req.done = true;
      ++tenant.stats.rejected_quota;
      if (obs_ != nullptr) obs_->metrics.add(m_rejected_);
      if (!batched) {
        emit("fleet.reject", req,
             status_code_name(StatusCode::kOverloaded), 0, now);
      }
      return;
    }
    ++tenant.stats.admitted;
    if (obs_ != nullptr) obs_->metrics.add(m_admitted_);
    req.deadline_at = req.submit + config_.deadline;
    req.admitted_at = now;
    if (!batched) emit("fleet.admit", req, "admitted", 0, now);
    const int id = req.id;
    engine_.schedule_at(req.deadline_at, [this, id] {
      Request& r = requests_[static_cast<std::size_t>(id)];
      // In-flight attempts carry their own deadline-clamped timeout.
      if (r.done || r.inflight) return;
      if (r.queued) {
        queue_.remove(r.id);
        r.queued = false;
        note_queue_depth();
      }
      fail_request(r, engine_.now(), "deadline", 0);
    });
    enqueue(req, now);
  }

  /// Schedules the next epoch drain at the next multiple of the batch
  /// window (fixed grid, so epoch boundaries — and the traces they emit
  /// — do not depend on which arrival armed them).
  void arm_epoch(sim::Ns now) {
    if (epoch_armed_) return;
    epoch_armed_ = true;
    const double w = config_.batch_window;
    const sim::Ns at = (std::floor(now / w) + 1.0) * w;
    engine_.schedule_at(at, [this] { drain_epoch(engine_.now()); });
  }

  /// Drains one admission epoch: every parked arrival gets its quota
  /// verdict and applies it, in arrival order. One span replaces the
  /// per-request admit/reject events.
  void drain_epoch(sim::Ns now) {
    epoch_armed_ = false;
    if (batch_ids_.empty()) return;
    const std::size_t count = batch_ids_.size();
    obs::SpanId span = 0;
    if (trace() != nullptr) {
      obs::EventFields fields;
      fields.t_sim = now;
      fields.bytes = static_cast<long long>(count);
      const std::string detail = std::to_string(count) + " arrivals";
      fields.detail = detail;
      span = trace()->begin_span("fleet.admit_batch", run_span_, fields);
    }
    long long admitted = 0;
    for (const int id : batch_ids_) {
      Request& req = requests_[static_cast<std::size_t>(id)];
      // Buckets refill to the original submit time: verdicts match what
      // the per-request path would have said at arrival.
      const bool ok = tenant_of(req).bucket.try_take(req.submit);
      finish_admission(req, now, ok, /*batched=*/true);
      if (ok) ++admitted;
    }
    batch_ids_.clear();
    if (obs_ != nullptr) {
      obs_->metrics.add(m_batch_epochs_);
      obs_->metrics.observe(h_batch_arrivals_, static_cast<double>(count));
      obs_->metrics.add(m_batch_admitted_, static_cast<double>(admitted));
      obs_->metrics.add(m_batch_rejected_,
                        static_cast<double>(count) -
                            static_cast<double>(admitted));
    }
    if (trace() != nullptr) {
      obs::EventFields fields;
      fields.t_sim = now;
      fields.bytes = admitted;
      trace()->end_span(span, "ok", fields);
    }
    try_dispatch(now);
  }

  void schedule_arrival(int t, sim::Ns now) {
    TenantRuntime& tenant = tenants_[static_cast<std::size_t>(t)];
    const TenantSpec& spec = specs_[static_cast<std::size_t>(t)];
    if (spec.arrival_rate_per_s <= 0.0) return;
    // Poisson arrivals: exponential inter-arrival gap.
    const double u = tenant.arrivals.uniform();
    const sim::Ns gap =
        -std::log(1.0 - u) / spec.arrival_rate_per_s * 1e9;
    const sim::Ns at = now + gap;
    if (at >= config_.horizon) return;
    engine_.schedule_at(at, [this, t] { on_arrival(t, engine_.now()); });
  }

  // --- dispatch ----------------------------------------------------------
  /// Rebuilds the class placer's host-class table from coarse summaries
  /// (capacity under the current fault factor, free slots, breaker
  /// admission, windowed p99). Called lazily from pick_host when the
  /// table is past its staleness bound — never per dispatch.
  void refresh_summaries(sim::Ns now) {
    summaries_.clear();
    for (int h = 0; h < config_.num_hosts; ++h) {
      const HostState& hs = hosts_[static_cast<std::size_t>(h)];
      HostSummary s;
      s.capacity_gbps = hs.coarse_capacity * host_factor(h, now);
      s.free_slots = config_.max_inflight_per_host -
                     static_cast<int>(hs.inflight.size());
      s.admitting = hs.breaker.can_accept(now);
      s.window_p99 = hs.breaker.window_p99();
      summaries_.push_back(s);
    }
    placer_.refresh(summaries_, now);
    if (obs_ != nullptr) {
      obs_->metrics.add(m_summary_refreshes_);
      obs_->metrics.set(g_class_count_, placer_.num_classes());
    }
  }

  /// Host choice. kLeastLoaded: least in-flight among hosts with a free
  /// slot whose breaker admits (ties: lowest index). kClassSpread: the
  /// paper-§VI placer — round-robin across capacity classes, least
  /// loaded within one. -1 when none.
  int pick_host(sim::Ns now) {
    if (config_.placement == PlacementPolicy::kClassSpread) {
      if (placer_.stale(now)) refresh_summaries(now);
      scratch_load_.clear();
      for (const HostState& hs : hosts_) {
        scratch_load_.push_back(static_cast<int>(hs.inflight.size()));
      }
      const long long spread0 = placer_.spread_picks();
      const long long fallback0 = placer_.fallback_picks();
      const int pick =
          placer_.pick(scratch_load_, [this, now](int h) {
            const HostState& hs = hosts_[static_cast<std::size_t>(h)];
            return static_cast<int>(hs.inflight.size()) <
                       config_.max_inflight_per_host &&
                   hs.breaker.can_accept(now);
          });
      if (obs_ != nullptr) {
        obs_->metrics.add(
            m_place_spread_,
            static_cast<double>(placer_.spread_picks() - spread0));
        obs_->metrics.add(
            m_place_fallback_,
            static_cast<double>(placer_.fallback_picks() - fallback0));
      }
      return pick;
    }
    int best = -1;
    for (int h = 0; h < config_.num_hosts; ++h) {
      const HostState& hs = hosts_[static_cast<std::size_t>(h)];
      if (static_cast<int>(hs.inflight.size()) >=
          config_.max_inflight_per_host) {
        continue;
      }
      if (!hs.breaker.can_accept(now)) continue;
      if (best < 0 ||
          hs.inflight.size() <
              hosts_[static_cast<std::size_t>(best)].inflight.size()) {
        best = h;
      }
    }
    return best;
  }

  void try_dispatch(sim::Ns now) {
    while (!queue_.empty()) {
      const int h = pick_host(now);
      if (h < 0) {
        schedule_dispatch_wakeup(now);
        return;
      }
      const QueueItem item = queue_.pop();
      note_queue_depth();
      Request& req = requests_[static_cast<std::size_t>(item.request)];
      req.queued = false;
      if (now >= req.deadline_at - kTimeEps) {
        fail_request(req, now, "deadline", 0);
        continue;
      }
      bool probe = false;
      HostState& hs = hosts_[static_cast<std::size_t>(h)];
      if (!hs.breaker.try_acquire(now, &probe)) {
        // can_accept previewed true, so this is unreachable in practice;
        // never lose the request regardless.
        enqueue(req, now);
        return;
      }
      start_attempt(req, h, probe, now);
    }
  }

  /// When every host refuses, wake up when the earliest breaker cooldown
  /// elapses (probe time); completions and fault transitions re-dispatch
  /// on their own.
  void schedule_dispatch_wakeup(sim::Ns now) {
    sim::Ns earliest = std::numeric_limits<double>::infinity();
    for (const HostState& hs : hosts_) {
      if (hs.breaker.state() == BreakerState::kOpen) {
        earliest = std::min(earliest, hs.breaker.reopen_at());
      }
    }
    if (!std::isfinite(earliest)) return;
    earliest = std::max(earliest, now);
    if (dispatch_wakeup_at_ <= earliest + kTimeEps &&
        dispatch_wakeup_at_ > now) {
      return;  // an earlier-or-equal wakeup is already pending
    }
    dispatch_wakeup_at_ = earliest;
    engine_.schedule_at(earliest, [this, earliest] {
      if (dispatch_wakeup_at_ != earliest) return;
      dispatch_wakeup_at_ = -1.0;
      try_dispatch(engine_.now());
    });
  }

  // --- faults ------------------------------------------------------------
  void on_host_crash(int h, sim::Ns at) {
    HostState& hs = hosts_[static_cast<std::size_t>(h)];
    hs.breaker.trip(at, "crash");
    // Fail over everything in flight: the requests survive, the host's
    // work does not. Re-placement does not burn the tenants' retry budget
    // (the fleet, not the tenant, is at fault) but the deadline still
    // stands.
    std::vector<Request*> doomed = hs.inflight;
    for (Request* req : doomed) {
      detach_attempt(*req);
      ++replaced_;
      if (obs_ != nullptr) obs_->metrics.add(m_replaced_);
      emit("fleet.replace", *req, "replaced", fault_cause(), at);
      enqueue(*req, at);
    }
    ++hs.projection;  // cancel any pending completion projection
  }

  void on_breaker_transition(int h, BreakerState from, BreakerState to,
                             sim::Ns at, const char* reason) {
    if (to == BreakerState::kOpen) {
      ++breaker_trips_;
      if (obs_ != nullptr) obs_->metrics.add(m_trips_);
    }
    if (obs_ != nullptr) {
      int open = 0;
      for (const HostState& hs : hosts_) {
        if (hs.breaker.state() != BreakerState::kClosed) ++open;
      }
      obs_->metrics.set(g_breakers_open_, open);
    }
    if (trace() == nullptr) return;
    obs::EventFields fields;
    fields.t_sim = at;
    fields.node_a = h;
    const std::string detail = std::string("host ") + std::to_string(h) +
                               " " + to_string(from) + "->" + to_string(to) +
                               " (" + reason + ")";
    fields.detail = detail;
    // Trips and recoveries cite the fault transition that drove them.
    trace()->event("fleet.breaker", run_span_, fault_cause(), to_string(to),
                   fields);
  }

  void arm_fault_steps(sim::Ns after) {
    if (injector_ == nullptr) return;
    const sim::Ns next = injector_->next_transition_after(after);
    if (!std::isfinite(next)) return;
    engine_.schedule_at(next, [this, next] {
      // Progress every host under pre-transition rates, then mutate.
      for (int h = 0; h < config_.num_hosts; ++h) advance_host(h, next);
      injector_->advance_to(next);
      for (int h = 0; h < config_.num_hosts; ++h) reproject(h, next);
      try_dispatch(next);
      arm_fault_steps(next);
    });
  }

  // --- reporting ---------------------------------------------------------
  FleetReport build_report(sim::Ns makespan) {
    FleetReport report;
    report.makespan = makespan;
    const double horizon_s = config_.horizon / 1e9;
    for (TenantRuntime& tenant : tenants_) {
      TenantStats stats = tenant.stats;
      const std::vector<double> latency =
          sim::percentiles(tenant.latencies, {0.5, 0.99});
      stats.latency_p50 = latency[0];
      stats.latency_p99 = latency[1];
      if (horizon_s > 0.0) {
        stats.goodput_rps =
            static_cast<double>(stats.completed) / horizon_s;
      }
      report.submitted += stats.submitted;
      report.admitted += stats.admitted;
      report.rejected_quota += stats.rejected_quota;
      report.shed += stats.shed;
      report.completed += stats.completed;
      report.failed += stats.failed;
      report.retries += stats.retries;
      report.tenants.push_back(std::move(stats));
    }
    report.replaced = replaced_;
    report.dispatches = dispatches_;
    report.breaker_trips = breaker_trips_;
    report.max_queue_depth = max_queue_depth_;
    // Rate the scheduler over its active span: the engine keeps draining
    // guard events (deadline checks for long-finished requests) for a
    // whole deadline past the final arrival, and that silent tail is not
    // scheduling time.
    const sim::Ns active = last_dispatch_ > 0.0 ? last_dispatch_ : makespan;
    if (active > 0.0) {
      report.attempts_per_s =
          static_cast<double>(dispatches_) / (active / 1e9);
    }
    if (report.submitted > 0) {
      report.shed_fraction = static_cast<double>(report.shed) /
                             static_cast<double>(report.submitted);
    }
    const std::vector<double> accepted =
        sim::percentiles(all_latencies_, {0.5, 0.99, 0.999});
    report.accepted_p50 = accepted[0];
    report.accepted_p99 = accepted[1];
    report.accepted_p999 = accepted[2];
    const std::vector<double> placement =
        sim::percentiles(placement_lat_, {0.5, 0.99});
    report.placement_p50 = placement[0];
    report.placement_p99 = placement[1];
    report.lane_rounds = engine_.rounds();
    if (obs_ != nullptr) {
      obs_->metrics.set(
          g_goodput_,
          horizon_s > 0.0 ? static_cast<double>(report.completed) / horizon_s
                          : 0.0);
      obs_->metrics.add(m_lane_events_,
                        static_cast<double>(engine_.alarms_fired()));
      obs_->metrics.add(m_lane_rounds_,
                        static_cast<double>(engine_.rounds()));
    }
    return report;
  }

  const FleetConfig& config_;
  const std::vector<TenantSpec>& specs_;
  obs::Context* obs_;
  sim::AlarmEngine engine_;
  std::vector<HostState> hosts_;
  std::vector<TenantRuntime> tenants_;
  /// Request arena: deque for stable addresses with chunked allocation
  /// (a scale run creates millions; one heap node per request was
  /// measurable). Event callbacks hold (id, generation) pairs.
  std::deque<Request> requests_;
  BoundedQueue queue_;
  ClassPlacer placer_;
  std::unique_ptr<faults::FaultInjector> injector_;
  sim::Rng backoff_rng_;
  sim::Rng workload_rng_;
  // Batched-admission epoch state (batch_window > 0).
  std::vector<int> batch_ids_;  ///< Arrivals parked until the next drain.
  bool epoch_armed_ = false;
  // Coarse service model / class placement state, per SKU (0 = DL585,
  // 1 = lite).
  double coarse_capacity_[2] = {0.0, 0.0};  ///< Gbps an unloaded host serves.
  std::vector<topo::NodeId> serve_nodes_[2];  ///< Class-1 nodes (rr).
  std::size_t node_rr_ = 0;
  std::vector<HostSummary> summaries_;  ///< Scratch per refresh.
  std::vector<int> scratch_load_;       ///< Scratch per pick.
  std::vector<double> placement_lat_;   ///< Admission -> first dispatch.
  obs::SpanId run_span_ = 0;
  sim::Ns dispatch_wakeup_at_ = -1.0;
  long long dispatches_ = 0;
  sim::Ns last_dispatch_ = 0.0;  ///< When the final attempt started.
  long long retries_ = 0;
  long long replaced_ = 0;
  int breaker_trips_ = 0;
  int max_queue_depth_ = 0;
  std::vector<double> all_latencies_;

  obs::MetricsRegistry::Id m_requests_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_admitted_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_rejected_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_shed_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_dispatches_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_timeouts_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_retries_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_replaced_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_completed_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_failed_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_trips_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id g_queue_depth_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id g_breakers_open_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id g_goodput_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id h_latency_ms_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_batch_epochs_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_batch_admitted_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_batch_rejected_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id h_batch_arrivals_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id h_placement_ms_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_place_spread_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_place_fallback_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_summary_refreshes_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id g_class_count_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_lane_events_ = obs::MetricsRegistry::kNone;
  obs::MetricsRegistry::Id m_lane_rounds_ = obs::MetricsRegistry::kNone;
};

FleetReport FleetRuntime::run() {
  if (trace() != nullptr) {
    obs::EventFields fields;
    // The engine starts at simulated t = 0; stamping the begin makes the
    // span foldable (obs/profile.h) — an untimed begin would drop the
    // whole run from the flame.
    fields.t_sim = 0.0;
    const std::string detail = std::to_string(config_.num_hosts) +
                               " hosts, " +
                               std::to_string(specs_.size()) + " tenants";
    fields.detail = detail;
    run_span_ = trace()->begin_span("fleet.run", 0, fields);
  }
  for (int t = 0; t < static_cast<int>(specs_.size()); ++t) {
    schedule_arrival(t, 0.0);
  }
  arm_fault_steps(-1.0);
  const sim::Ns makespan = engine_.run();
  if (injector_ != nullptr) injector_->restore();
  FleetReport report = build_report(makespan);
  if (trace() != nullptr) {
    obs::EventFields fields;
    fields.t_sim = makespan;
    fields.bytes = report.completed;
    trace()->end_span(run_span_, "ok", fields);
  }
  return report;
}

}  // namespace

FleetReport FleetSim::run() {
  FleetRuntime runtime(config_, tenants_, plan_, obs_);
  return runtime.run();
}

std::string FleetReport::summary() const {
  std::string out;
  char buf[200];
  std::snprintf(buf, sizeof buf, "%-8s %4s %9s %9s %8s %6s %9s %6s %8s %8s\n",
                "tenant", "prio", "submitted", "admitted", "rejected",
                "shed", "completed", "failed", "p50 ms", "p99 ms");
  out += buf;
  for (const TenantStats& t : tenants) {
    std::snprintf(buf, sizeof buf,
                  "%-8s %4d %9lld %9lld %8lld %6lld %9lld %6lld %8.1f %8.1f\n",
                  t.name.c_str(), t.priority, t.submitted, t.admitted,
                  t.rejected_quota, t.shed, t.completed, t.failed,
                  t.latency_p50 / 1e6, t.latency_p99 / 1e6);
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "total: %lld submitted, %lld completed, %lld shed "
                "(%.1f%%), %lld failed, %lld retries, %lld replaced\n",
                submitted, completed, shed, shed_fraction * 100.0, failed,
                retries, replaced);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "dispatch: %.0f attempts/s, accepted p50 %.1f ms / p99 %.1f "
                "ms / p99.9 %.1f ms, max queue %d, %d breaker trips, "
                "placement p99 %.2f ms\n",
                attempts_per_s, accepted_p50 / 1e6, accepted_p99 / 1e6,
                accepted_p999 / 1e6, max_queue_depth, breaker_trips,
                placement_p99 / 1e6);
  out += buf;
  return out;
}

namespace {
/// The storms' fault plan: one host (host 1, or host 0 alone) dies 30% into
/// the run and comes back at half capacity for 20% of it while it warms its
/// caches and rebuilds connections.
faults::FaultPlan crash_then_recover(int num_hosts, sim::Ns horizon) {
  faults::FaultPlan plan;
  const int victim = num_hosts > 1 ? 1 : 0;
  faults::FaultEvent crash;
  crash.kind = faults::FaultKind::kHostCrash;
  crash.host = victim;
  crash.start = 0.30 * horizon;
  crash.duration = 0.25 * horizon;
  plan.add(crash);
  faults::FaultEvent recover;
  recover.kind = faults::FaultKind::kHostRecover;
  recover.host = victim;
  recover.start = crash.start + crash.duration;
  recover.duration = 0.20 * horizon;
  recover.severity = 0.5;
  plan.add(recover);
  return plan;
}
}  // namespace

StormScenario make_storm(int num_hosts, int num_tenants, double offered_rps,
                         std::uint64_t seed, sim::Ns horizon) {
  StormScenario storm;
  storm.config.num_hosts = num_hosts;
  storm.config.seed = seed;
  storm.config.horizon = horizon;
  storm.config.queue_depth = 48;
  storm.config.deadline = 0.6e9;
  storm.config.retry.max_retries = 2;
  storm.config.retry.timeout = 0.2e9;
  storm.config.breaker.failure_threshold = 3;
  storm.config.breaker.open_cooldown = 0.4e9;
  storm.config.breaker.probe_successes = 2;

  // Ascending priorities; the lowest-priority tenant carries the largest
  // share of the offered load, so shedding it first frees the most.
  double weight_sum = 0.0;
  for (int t = 0; t < num_tenants; ++t) {
    weight_sum += static_cast<double>(num_tenants - t);
  }
  for (int t = 0; t < num_tenants; ++t) {
    TenantSpec spec;
    spec.name = "t";
    spec.name += std::to_string(t);
    spec.priority = t;
    const double share =
        static_cast<double>(num_tenants - t) / weight_sum;
    spec.arrival_rate_per_s = offered_rps * share;
    spec.quota_rate_per_s = spec.arrival_rate_per_s * 1.25;
    spec.quota_burst = 16.0;
    spec.retry_budget = 24;
    spec.request_bytes = 16 * sim::kMiB;
    storm.tenants.push_back(std::move(spec));
  }

  storm.plan = crash_then_recover(num_hosts, horizon);
  return storm;
}

StormScenario make_scale_storm(int num_hosts, int num_tenants,
                               double offered_rps, std::uint64_t seed,
                               sim::Ns horizon) {
  StormScenario storm;
  storm.config.num_hosts = num_hosts;
  storm.config.seed = seed;
  storm.config.horizon = horizon;
  // Scale knobs: deep queue, wide per-host concurrency, small requests,
  // tight deadlines — a key-value / RPC fleet, not a bulk-transfer one.
  storm.config.queue_depth = 512;
  storm.config.max_inflight_per_host = 64;
  storm.config.deadline = 0.25e9;
  storm.config.retry.max_retries = 2;
  storm.config.retry.timeout = 0.08e9;
  storm.config.retry.base_backoff = 1.0e6;
  storm.config.retry.max_backoff = 0.02e9;
  storm.config.breaker.failure_threshold = 8;
  storm.config.breaker.open_cooldown = 0.05e9;
  // The scale request path: batched admission, coarse service,
  // class-spread placement.
  storm.config.batch_window = 2.0e6;
  storm.config.service_model = ServiceModel::kCoarse;
  storm.config.placement = PlacementPolicy::kClassSpread;
  storm.config.summary_refresh = 10.0e6;
  // Grid-aligned completion alarms (0.5 ms — a quarter of the admission
  // epoch, 1/500th of the deadline) and a mixed fleet (every third host
  // is the lite SKU) so gap_classes yields >1 class.
  storm.config.completion_grid = 0.5e6;
  storm.config.alt_sku_every = 3;

  const double per_tenant =
      offered_rps / static_cast<double>(num_tenants);
  for (int t = 0; t < num_tenants; ++t) {
    TenantSpec spec;
    spec.name = "t";
    spec.name += std::to_string(t);
    spec.priority = t % 4;
    spec.arrival_rate_per_s = per_tenant;
    spec.quota_rate_per_s = per_tenant * 1.5;
    spec.quota_burst = 8.0;
    spec.retry_budget = 8;
    spec.request_bytes = 256 * sim::kKiB;
    storm.tenants.push_back(std::move(spec));
  }

  storm.plan = crash_then_recover(num_hosts, horizon);
  return storm;
}

}  // namespace numaio::fleet
