// One workload run of the repository benchmark, in its own process.
//
//   perfbench --workload NAME --seed N [--scale full|tiny] [--spans FILE]
//   perfbench --calibrate
//
// Without --spans the run is untraced: it calls the library's public entry
// points (core::build_network, core::run_sweep, trace::run_tenants) exactly
// as a user program would. With --spans the same work runs with the
// benchmark's own spans around every call into a layer: the network build
// is replayed step by step (TopologyRegistry::wire, install_fabric,
// inject_faults, timeline install) with forwarding wrappers around the
// routing algorithm and the traffic source, and each open-loop point drives
// try_skip_idle()/step() itself before calling run() for the drain. The
// spans stay in memory and are written to FILE at the end.
//
// The last stdout line is one JSON object: host times, the simulated
// outputs of every engine run (compared across processes by run.py), the
// conservation-ledger verdicts and, when traced, the per-layer numbers.
// With --calibrate it is {"ref_s": ..., "ref_check": ...}: the time of the
// host-speed reference kernel and a checksum of what it read.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/registry.hpp"
#include "core/scenario.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "topo/fabric.hpp"
#include "topo/faults.hpp"
#include "trace/placement.hpp"
#include "trace/tenants.hpp"
#include "traffic/pattern.hpp"
#include "workload/registry.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_LTO
#define PERFBENCH_LTO 0
#endif

namespace pb {

using namespace sldf;
using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ------------------------------------------------------------- tracing ---

/// Leaf-call tallies of one thread. Only the owning thread writes; the
/// main thread reads them between engine calls (the sharded engine joins
/// its phase before step() returns), so relaxed atomics suffice.
struct LeafCounters {
  std::atomic<std::uint64_t> route_calls{0};
  std::atomic<std::uint64_t> init_calls{0};
  std::atomic<std::uint64_t> route_ns{0};
  std::atomic<std::uint64_t> dest_calls{0};
  std::atomic<std::uint64_t> dest_ns{0};
};

inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t d) {
  c.store(c.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
}

struct LeafTotals {
  std::uint64_t route_calls = 0, init_calls = 0, route_ns = 0;
  std::uint64_t dest_calls = 0, dest_ns = 0;
  [[nodiscard]] std::uint64_t child_ns() const { return route_ns + dest_ns; }
};

struct Span {
  const char* name = nullptr;
  double t0 = 0.0;
  double t1 = 0.0;
  int parent = -1;
  int run = 0;              ///< Engine run (sweep point or closed-loop call).
  std::uint64_t leaf_ns = 0;  ///< Route + traffic leaf time inside the span.
};

/// In-memory span recorder. Route and traffic decisions are far too many to
/// keep one span each; they are tallied per thread and charged to the
/// enclosing span as leaf time.
class Tracer {
 public:
  int begin(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.run = run_;
    s.leaf_ns = leaf_totals().child_ns();  // start mark, replaced at end()
    s.t0 = now_s();
    spans_.push_back(s);
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.t1 = now_s();
    s.leaf_ns = leaf_totals().child_ns() - s.leaf_ns;
    stack_.pop_back();
  }
  void next_run() { ++run_; }

  LeafCounters& leaf() {
    thread_local LeafCounters* mine = nullptr;
    if (mine == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      counters_.push_back(std::make_unique<LeafCounters>());
      mine = counters_.back().get();
    }
    return *mine;
  }
  LeafTotals leaf_totals() {
    std::lock_guard<std::mutex> lock(mu_);
    LeafTotals t;
    for (const auto& c : counters_) {
      t.route_calls += c->route_calls.load(std::memory_order_relaxed);
      t.init_calls += c->init_calls.load(std::memory_order_relaxed);
      t.route_ns += c->route_ns.load(std::memory_order_relaxed);
      t.dest_calls += c->dest_calls.load(std::memory_order_relaxed);
      t.dest_ns += c->dest_ns.load(std::memory_order_relaxed);
    }
    return t;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
  std::mutex mu_;  ///< Guards counters_ (shard threads register lazily).
  std::vector<std::unique_ptr<LeafCounters>> counters_;
};

/// One tracer per process; null when the run is untraced.
Tracer* g_tracer = nullptr;

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : id_(g_tracer ? g_tracer->begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) g_tracer->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_;
};

/// Forwards every RoutingAlgorithm virtual, timing init_packet and route.
class TracedRouting final : public sim::RoutingAlgorithm {
 public:
  explicit TracedRouting(std::unique_ptr<sim::RoutingAlgorithm> inner)
      : inner_(std::move(inner)) {}
  void bind_topo(const sim::TopoInfo& info, int num_vcs) override {
    inner_->bind_topo(info, num_vcs);
  }
  void init_packet(const sim::Network& net, sim::Packet& pkt,
                   Rng& rng) override {
    const std::uint64_t t0 = now_ns();
    inner_->init_packet(net, pkt, rng);
    LeafCounters& c = g_tracer->leaf();
    bump(c.route_ns, now_ns() - t0);
    bump(c.init_calls, 1);
  }
  sim::RouteDecision route(const sim::Network& net, NodeId router,
                           PortIx in_port, sim::Packet& pkt) override {
    const std::uint64_t t0 = now_ns();
    const sim::RouteDecision d = inner_->route(net, router, in_port, pkt);
    LeafCounters& c = g_tracer->leaf();
    bump(c.route_ns, now_ns() - t0);
    bump(c.route_calls, 1);
    return d;
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::RoutingAlgorithm> inner_;
};

/// Forwards every TrafficSource virtual, timing dest.
class TracedTraffic final : public sim::TrafficSource {
 public:
  explicit TracedTraffic(std::unique_ptr<sim::TrafficSource> inner)
      : inner_(std::move(inner)) {}
  NodeId dest(const sim::Network& net, NodeId src, Rng& rng) override {
    const std::uint64_t t0 = now_ns();
    const NodeId d = inner_->dest(net, src, rng);
    LeafCounters& c = g_tracer->leaf();
    bump(c.dest_ns, now_ns() - t0);
    bump(c.dest_calls, 1);
    return d;
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<sim::TrafficSource> inner_;
};

// ---------------------------------------------------------------- JSON ---

std::string jnum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string jnum(std::uint64_t v) { return std::to_string(v); }
std::string jstr(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

/// Accumulates `"key": value` pairs into one JSON object.
class JObj {
 public:
  JObj& raw(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += jstr(k) + ": " + v;
    return *this;
  }
  JObj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  JObj& u64(const std::string& k, std::uint64_t v) { return raw(k, jnum(v)); }
  JObj& str(const std::string& k, const std::string& v) {
    return raw(k, jstr(v));
  }
  JObj& b(const std::string& k, bool v) { return raw(k, v ? "true" : "false"); }
  template <typename T>
  JObj& list(const std::string& k, const std::vector<T>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) a += ", ";
      a += jnum(v[i]);
    }
    return raw(k, a + "]");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string jarr(const std::vector<std::string>& items) {
  std::string a = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) a += ", ";
    a += items[i];
  }
  return a + "]";
}

// ------------------------------------------------------------ checks ---

std::uint64_t vsum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

/// The SimResult conservation ledger, packet and flit forms, in total and
/// per plane / per wafer. Returns an empty string when it closes.
std::string ledger_error(const sim::SimResult& r) {
  std::ostringstream e;
  if (r.generated_packets !=
      r.delivered_total + r.dropped_packets + r.inflight_packets)
    e << "packet ledger: generated " << r.generated_packets
      << " != delivered " << r.delivered_total << " + dropped "
      << r.dropped_packets << " + inflight " << r.inflight_packets << "; ";
  if (r.generated_flits != r.ejected_flits + r.lost_flits + r.inflight_flits)
    e << "flit ledger: generated " << r.generated_flits << " != ejected "
      << r.ejected_flits << " + lost " << r.lost_flits << " + inflight "
      << r.inflight_flits << "; ";
  const auto split = [&](const char* what,
                         const std::vector<std::uint64_t>& gen,
                         const std::vector<std::uint64_t>& del,
                         const std::vector<std::uint64_t>& drop,
                         const std::vector<std::uint64_t>& infl) {
    if (vsum(gen) != r.generated_packets || vsum(del) != r.delivered_total ||
        vsum(drop) != r.dropped_packets || vsum(infl) != r.inflight_packets)
      e << what << " split does not sum to the totals; ";
    for (std::size_t i = 0; i < gen.size(); ++i)
      if (gen[i] != del[i] + drop[i] + infl[i])
        e << what << " " << i << " ledger does not close; ";
  };
  split("plane", r.plane_generated, r.plane_delivered, r.plane_dropped,
        r.plane_inflight);
  split("wafer", r.wafer_generated, r.wafer_delivered, r.wafer_dropped,
        r.wafer_inflight);
  return e.str();
}

std::string point_json(const std::string& series, double rate,
                       const sim::SimResult& r) {
  JObj o;
  o.str("series", series).num("rate", rate);
  o.u64("cycles_run", r.cycles_run).u64("flit_hops", r.flit_hops);
  o.u64("delivered_total", r.delivered_total).num("accepted", r.accepted);
  o.num("avg_latency", r.avg_latency).num("p99_latency", r.p99_latency);
  o.num("offered", r.offered).num("p50_latency", r.p50_latency);
  o.num("min_latency", r.min_latency).num("max_latency", r.max_latency);
  o.u64("generated_measured", r.generated_measured);
  o.u64("delivered_measured", r.delivered_measured);
  o.u64("suppressed", r.suppressed).b("drained", r.drained);
  o.list("avg_hops", std::vector<double>(std::begin(r.avg_hops),
                                         std::end(r.avg_hops)));
  o.num("avg_hops_total", r.avg_hops_total);
  o.u64("dropped_packets", r.dropped_packets);
  o.u64("dropped_flits", r.dropped_flits);
  o.u64("rescued_packets", r.rescued_packets);
  o.u64("generated_packets", r.generated_packets);
  o.u64("inflight_packets", r.inflight_packets);
  o.u64("generated_flits", r.generated_flits);
  o.u64("ejected_flits", r.ejected_flits).u64("lost_flits", r.lost_flits);
  o.u64("inflight_flits", r.inflight_flits);
  o.list("plane_generated", r.plane_generated);
  o.list("plane_delivered", r.plane_delivered);
  o.list("plane_dropped", r.plane_dropped);
  o.list("plane_inflight", r.plane_inflight);
  o.list("wafer_generated", r.wafer_generated);
  o.list("wafer_delivered", r.wafer_delivered);
  o.list("wafer_dropped", r.wafer_dropped);
  o.list("wafer_inflight", r.wafer_inflight);
  return o.str();
}

std::string tenants_json(const trace::MultiTenantResult& r) {
  std::vector<std::string> ts;
  for (const auto& t : r.tenants) {
    JObj o;
    o.str("name", t.name).str("workload", t.workload);
    o.str("placement", t.placement).u64("chips", t.chips.size());
    o.b("completed", t.completed).u64("ttc", t.ttc);
    o.u64("isolated_ttc", t.isolated_ttc).u64("messages", t.messages);
    o.u64("flits", t.flits).num("avg_msg_cycles", t.avg_msg_cycles);
    o.num("p50_msg_cycles", t.p50_msg_cycles);
    o.num("p99_msg_cycles", t.p99_msg_cycles);
    o.num("interference", t.interference);
    ts.push_back(o.str());
  }
  JObj o;
  o.b("completed", r.completed).u64("makespan", r.cycles);
  o.u64("flit_hops", r.flit_hops);
  o.u64("packets_delivered", r.packets_delivered);
  o.raw("tenants", jarr(ts));
  return o.str();
}

// ----------------------------------------------------------- workloads ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  std::string spans;  ///< Non-empty: traced run, spans written here.
};

/// The series of an open-loop workload, one sweep each.
using OpenLoop = std::vector<core::ScenarioSpec>;

core::ScenarioSpec point_spec(const std::string& topology, double rate,
                              Cycle warmup, Cycle measure, Cycle drain,
                              std::uint64_t seed) {
  core::ScenarioSpec s;
  s.label = topology;
  s.topology = topology;
  s.traffic = "uniform";
  s.rates = {rate};
  s.sim.warmup = warmup;
  s.sim.measure = measure;
  s.sim.drain = drain;
  s.sim.seed = seed;
  s.sim.shards = 1;
  s.threads = 1;
  return s;
}

/// The fig11a experiment (configs/fig11a.conf): three radix-16 series,
/// uniform traffic, linspace loads with the stop-factor-8 rule, serial.
OpenLoop sweep_fig11a(const Args& a) {
  const char* swdf = "radix16-swdf";
  const char* swless = a.tiny ? "tiny-swless" : "radix16-swless";
  const Cycle w = a.tiny ? 100 : 50;
  OpenLoop o;
  for (int i = 0; i < 3; ++i) {
    core::ScenarioSpec s =
        point_spec(i == 0 ? swdf : swless, 0.0, w, 2 * w, w, a.seed);
    s.label = i == 0 ? "SW-based" : i == 1 ? "SW-less" : "SW-less-2B";
    s.rates.clear();
    s.max_rate = 1.0;
    s.points = 3;
    s.stop_latency_factor = 8.0;
    if (a.tiny && i == 0) s.topo["g"] = "5";
    if (i == 2) s.topo["mesh_width"] = "2";
    o.push_back(std::move(s));
  }
  return o;
}

/// Full-wafer radix-32 switch-less point at offered 0.9 on two shards.
OpenLoop sat_r32_sh2(const Args& a) {
  OpenLoop o;
  core::ScenarioSpec s =
      a.tiny ? point_spec("tiny-swless", 0.9, 100, 200, 100, a.seed)
             : point_spec("radix32-swless", 0.9, 30, 40, 10, a.seed);
  s.sim.shards = 2;
  o.push_back(std::move(s));
  return o;
}

/// The resilience-online point: 10% of global cables fail at the end of
/// warmup, half of them come back mid-measurement.
OpenLoop faults_online(const Args& a) {
  OpenLoop o;
  const Cycle w = a.tiny ? 100 : 150;
  core::ScenarioSpec s = point_spec("radix16-swless", 0.9, w, 2 * w, w,
                                    a.seed);
  if (a.tiny) s.topo["g"] = "5";
  s.fault.seed = 7;
  s.fault.events = "fail@" + std::to_string(w) + ":global=0.1;repair@" +
                   std::to_string(2 * w) + ":global=0.05";
  o.push_back(std::move(s));
  return o;
}

/// Three co-located jobs with isolation baselines: ring-AllReduce, a
/// windowed all-to-all on a scattered placement, request/reply serving.
core::ScenarioSpec tenants_r16(const Args& a) {
  core::ScenarioSpec s;
  s.label = "tenants-r16";
  s.topology = a.tiny ? "tiny-swless" : "radix16-swless";
  s.sim.seed = a.seed;
  s.sim.shards = 1;
  s.trace_seed = a.seed;
  s.set("tenants", "3");
  s.set("tenants.isolation", "1");
  const char* chips = a.tiny ? "8" : "64";
  s.set("tenant0.workload", "ring-allreduce");
  s.set("tenant0.chips", chips);
  s.set("tenant0.scope", "system");
  s.set("tenant0.kib", a.tiny ? "4" : "96");
  s.set("tenant1.workload", "all-to-all");
  s.set("tenant1.chips", chips);
  s.set("tenant1.scope", "system");
  s.set("tenant1.kib", a.tiny ? "0.25" : "1");
  s.set("tenant1.window", "2");
  s.set("tenant1.placement", "scattered");
  s.set("tenant2.workload", "request-reply");
  s.set("tenant2.chips", chips);
  s.set("tenant2.requests", a.tiny ? "32" : "128");
  s.set("tenant2.gap", "100");
  s.set("tenant2.rep_kib", "1");
  return s;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "sweep-fig11a", "sat-r32-sh2", "tenants-r16", "faults-online"};
  return names;
}

// ------------------------------------------------------------ the run ---

/// Per-layer counts that are not span times (those come from the spans).
struct Layers {
  std::uint64_t stepped_hops = 0;   ///< Flit-hops of the step() calls.
  std::uint64_t cycles_skipped = 0;
  std::uint64_t messages = 0;       ///< Tenant graph messages generated.
};

struct Run {
  double setup_s = 0.0;
  std::uint64_t flit_hops = 0;
  std::uint64_t runs = 0;
  std::uint64_t runs_failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> points;  ///< JSON per open-loop point.
  std::vector<std::string> closed;  ///< JSON per closed-loop run.
  // Simulated end-to-end metrics.
  double sim_accepted = 0, sim_latency = 0, sim_ttc = 0;
  Layers layers;
};

double span_s(const Span& s) { return s.t1 - s.t0; }

/// Replays core::build_network's classic single-fabric path one public
/// call at a time, wrapping the routing algorithm before installation.
void traced_build(sim::Network& net, const core::ScenarioSpec& spec) {
  const core::TopoConfig cfg = spec.topo_config();
  topo::WiredFabric f;
  {
    ScopedSpan s("topo.wire");
    f = core::TopologyRegistry::instance().wire(spec.topology, net, cfg);
  }
  f.routing = std::make_unique<TracedRouting>(std::move(f.routing));
  {
    ScopedSpan s("sim.finalize");
    topo::install_fabric(net, std::move(f));
  }
  if (spec.fault.active()) {
    ScopedSpan s("faults.inject");
    (void)topo::inject_faults(net, spec.fault);
  }
  if (spec.fault.has_timeline()) {
    ScopedSpan s("faults.timeline");
    if (!spec.fault.active()) net.enable_fault_mask();
    auto sched = std::make_shared<sim::FaultSchedule>(topo::resolve_timeline(
        net, topo::parse_fault_events(spec.fault.events), spec.fault));
    sched->rescue = spec.fault.rescue;
    net.set_fault_schedule(std::move(sched));
    net.capture_fault_baseline();
  }
}

/// One open-loop point the way run_sweep's serial path runs it, with the
/// warmup+measure loop of Simulator::run() driven from here.
sim::SimResult traced_point(sim::SimContext& ctx, sim::Network& net,
                            const sim::SimConfig& sc,
                            sim::TrafficSource& traffic, Layers& L) {
  net.reset_dynamic_state();
  sim::Simulator sim(net, sc, traffic, ctx);
  const sim::FaultSchedule* fs = net.fault_schedule();
  std::size_t next_fault = 0;
  const Cycle horizon = sc.warmup + sc.measure;
  while (sim.now() < horizon) {
    if (sc.idle_skip) {
      ScopedSpan s("sim.skip");
      const Cycle before = sim.now();
      sim.try_skip_idle(horizon);
      L.cycles_skipped += sim.now() - before;
      if (sim.now() >= horizon) break;
    }
    bool fault_due = false;
    while (fs != nullptr && next_fault < fs->steps.size() &&
           fs->steps[next_fault].at <= sim.now()) {
      fault_due = true;
      ++next_fault;
    }
    ScopedSpan s(fault_due ? "faults.step" : "sim.step");
    sim.step();
  }
  L.stepped_hops += sim.flit_hops();
  ScopedSpan s("sim.drain");
  return sim.run();  // horizon reached: drain + result assembly only
}

/// Mirrors run_sweep's serial loop (seed per point, early stop).
core::SweepSeries traced_sweep(const core::ScenarioSpec& spec, Run& run) {
  core::SweepSeries series;
  series.label = spec.label;
  ScopedSpan top("series");
  sim::Network net;
  std::unique_ptr<sim::TrafficSource> traffic;
  const double t0 = now_s();
  {
    ScopedSpan s("series.setup");
    traced_build(net, spec);
    traffic = std::make_unique<TracedTraffic>(
        traffic::make_pattern(spec.traffic, net, spec.traffic_opts));
  }
  run.setup_s += now_s() - t0;
  const std::vector<double> rates = spec.effective_rates();
  sim::SimContext ctx;
  double zero_load = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    g_tracer->next_run();
    ScopedSpan s("point");
    sim::SimConfig sc = spec.sim;
    sc.inj_rate_per_chip = rates[i];
    sc.seed = spec.sim.seed + i;
    core::SweepPoint pt;
    pt.rate = rates[i];
    pt.res = traced_point(ctx, net, sc, *traffic, run.layers);
    series.points.push_back(pt);
    if (i == 0) zero_load = pt.res.avg_latency;
    if (spec.stop_latency_factor > 0 && zero_load > 0 &&
        pt.res.avg_latency > zero_load * spec.stop_latency_factor)
      break;
  }
  return series;
}

core::SweepSeries plain_sweep(const core::ScenarioSpec& spec, Run& run) {
  core::SweepConfig cfg;
  cfg.rates = spec.effective_rates();
  cfg.base = spec.sim;
  cfg.stop_latency_factor = spec.stop_latency_factor;
  cfg.threads = 1;
  const core::NetFactory make_net = [&](sim::Network& net) {
    const double t0 = now_s();
    core::build_network(net, spec);
    run.setup_s += now_s() - t0;
  };
  const core::TrafficFactory make_traffic = [&](const sim::Network& net) {
    const double t0 = now_s();
    auto t = traffic::make_pattern(spec.traffic, net, spec.traffic_opts);
    run.setup_s += now_s() - t0;
    return t;
  };
  return core::run_sweep(spec.label, make_net, make_traffic, cfg);
}

void run_open_loop(const OpenLoop& ol, bool traced, Run& run) {
  double acc_sum = 0, lat_sum = 0;
  for (const auto& spec : ol) {
    const std::size_t planned = spec.effective_rates().size();
    try {
      const core::SweepSeries s =
          traced ? traced_sweep(spec, run) : plain_sweep(spec, run);
      if (s.points.empty()) throw std::runtime_error("series ran no points");
      for (const auto& pt : s.points) {
        ++run.runs;
        const std::string err = ledger_error(pt.res);
        if (!err.empty()) {
          ++run.runs_failed;
          run.errors.push_back(spec.label + ": " + err);
        }
        run.flit_hops += pt.res.flit_hops;
        run.sim_ttc += static_cast<double>(pt.res.cycles_run);
        run.points.push_back(point_json(s.label, pt.rate, pt.res));
      }
      lat_sum += s.points.front().res.avg_latency;
      acc_sum += s.points.back().res.accepted;
    } catch (const std::exception& e) {
      run.runs += planned;
      run.runs_failed += planned;
      run.errors.push_back(spec.label + ": " + e.what());
    }
  }
  const auto n = static_cast<double>(ol.size());
  run.sim_accepted = acc_sum / n;
  run.sim_latency = lat_sum / n;
}

void run_closed_loop(const core::ScenarioSpec& spec, bool traced, Run& run) {
  const std::uint64_t planned =
      1 + (spec.tenants_isolation ? static_cast<std::uint64_t>(spec.tenants)
                                  : 0);
  try {
    const double t0 = now_s();
    std::vector<trace::TenantSpec> tenants;
    workload::WorkloadRunConfig rc;
    workload::WorkloadEnv env;
    sim::Network net;
    {
      ScopedSpan s("tenants.setup");
      tenants = trace::tenant_specs(spec);
      core::KvMap gen_opts;
      rc = core::workload_run_config(spec, &gen_opts);
      env.flit_bytes = rc.flit_bytes;
      env.trace_file = spec.trace_file;
      env.trace_seed = spec.trace_seed;
      if (traced)
        traced_build(net, spec);
      else
        core::build_network(net, spec);
    }
    run.setup_s += now_s() - t0;
    if (traced) {
      // Each tenant's graph generation, timed on its own call (run_tenants
      // repeats it internally on the same placement).
      trace::PlacementAllocator alloc(net);
      for (const auto& t : tenants) {
        workload::WorkloadEnv te = env;
        te.chips = alloc.allocate(t.count, t.placement, t.name);
        ScopedSpan s("workload.gen");
        run.layers.messages +=
            workload::make_workload(t.workload, net, t.opts, te)
                .messages.size();
      }
      g_tracer->next_run();
    }
    trace::MultiTenantResult r;
    {
      ScopedSpan s("trace.run_tenants");
      r = trace::run_tenants(net, tenants, rc, env, spec.tenants_isolation);
    }
    run.runs += planned;
    bool ok = r.completed;
    double msgs = 0, lat = 0, flits = 0, chips = 0;
    for (const auto& t : r.tenants) {
      ok = ok && t.completed &&
           (!spec.tenants_isolation || t.isolated_ttc > 0);
      msgs += static_cast<double>(t.messages);
      lat += t.avg_msg_cycles * static_cast<double>(t.messages);
      flits += static_cast<double>(t.flits);
      chips += static_cast<double>(t.chips.size());
    }
    if (!ok) {
      run.runs_failed += planned;
      run.errors.push_back("tenants: a run did not complete");
    }
    run.flit_hops += r.flit_hops;
    run.sim_ttc = static_cast<double>(r.cycles);
    run.sim_latency = msgs > 0 ? lat / msgs : 0.0;
    run.sim_accepted = r.cycles > 0 && chips > 0
                           ? flits / static_cast<double>(r.cycles) / chips
                           : 0.0;
    run.closed.push_back(tenants_json(r));
  } catch (const std::exception& e) {
    run.runs += planned;
    run.runs_failed += planned;
    run.errors.push_back(std::string("tenants: ") + e.what());
  }
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
  return 0.0;
}

/// Highest percentile of the ladder with at least ten samples beyond it.
double tail_pct(std::size_t n) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 75.0})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  return 50.0;
}

/// Time, leaf time and count of the spans with one of the given names.
struct SpanSum {
  double s = 0.0;
  double leaf_s = 0.0;
  std::uint64_t n = 0;
  std::vector<double> us;  ///< Each span's duration.
};

SpanSum sum_spans(std::initializer_list<std::string_view> names) {
  SpanSum t;
  for (const auto& s : g_tracer->spans())
    if (std::find(names.begin(), names.end(), s.name) != names.end()) {
      t.s += span_s(s);
      t.leaf_s += static_cast<double>(s.leaf_ns) * 1e-9;
      ++t.n;
      t.us.push_back(span_s(s) * 1e6);
    }
  return t;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

std::string layers_json(const Run& run, double wall_s) {
  const Layers& L = run.layers;
  const LeafTotals lt = g_tracer->leaf_totals();
  double top = 0.0;
  for (const auto& s : g_tracer->spans())
    if (s.parent < 0) top += span_s(s);
  const SpanSum steps = sum_spans({"sim.step", "faults.step"});
  const SpanSum fault_steps = sum_spans({"faults.step"});
  const SpanSum tenants = sum_spans({"trace.run_tenants"});
  const double p = tail_pct(steps.us.size());
  JObj o;
  o.num("topo.wire_s", sum_spans({"topo.wire"}).s);
  o.num("sim.finalize_s", sum_spans({"sim.finalize"}).s);
  o.num("faults.inject_s", sum_spans({"faults.inject", "faults.timeline"}).s);
  o.u64("faults.steps", fault_steps.n).num("faults.step_s", fault_steps.s);
  o.u64("traffic.dest_calls", lt.dest_calls);
  o.num("traffic.dest_s", static_cast<double>(lt.dest_ns) * 1e-9);
  o.u64("route.calls", lt.route_calls).u64("route.init_calls", lt.init_calls);
  o.num("route.busy_s", static_cast<double>(lt.route_ns) * 1e-9);
  o.num("route.ns_per_call",
        ratio(static_cast<double>(lt.route_ns),
              static_cast<double>(lt.route_calls + lt.init_calls)));
  o.u64("sim.steps", steps.n).num("sim.step_s", steps.s);
  // Shard threads route in parallel, so their leaf time can exceed the
  // step's own wall time.
  o.num("sim.step_self_s", std::max(0.0, steps.s - steps.leaf_s));
  o.num("sim.hops_per_step", ratio(static_cast<double>(L.stepped_hops),
                                   static_cast<double>(steps.n)));
  o.num("sim.step_p50_us",
        steps.us.empty() ? 0.0 : exact_percentile(steps.us, 50.0));
  o.num("sim.step_tail_us",
        steps.us.empty() ? 0.0 : exact_percentile(steps.us, p));
  o.num("sim.step_tail_pct", p);
  o.u64("sim.skip_calls", sum_spans({"sim.skip"}).n);
  o.u64("sim.cycles_skipped", L.cycles_skipped);
  o.num("sim.idle_frac",
        ratio(static_cast<double>(L.cycles_skipped),
              static_cast<double>(L.cycles_skipped + steps.n)));
  o.num("sim.drain_s", sum_spans({"sim.drain"}).s);
  o.num("workload.gen_s", sum_spans({"workload.gen"}).s);
  o.u64("workload.messages", L.messages);
  o.num("trace.run_tenants_s", tenants.s);
  o.num("trace.run_tenants_self_s", std::max(0.0, tenants.s - tenants.leaf_s));
  o.num("tracing.unattributed_s", wall_s - top);
  o.num("tracing.top_level_s", top);
  return o.str();
}

void write_spans(const std::string& path, double origin) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans file " + path);
  const auto& spans = g_tracer->spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": " << jstr(s.name)
        << ", \"start_s\": " << jnum(s.t0 - origin)
        << ", \"end_s\": " << jnum(s.t1 - origin)
        << ", \"parent\": " << s.parent << ", \"run\": " << s.run
        << ", \"leaf_s\": " << jnum(static_cast<double>(s.leaf_ns) * 1e-9)
        << "}\n";
  }
}

/// The host-speed reference: a fixed kernel that shares no code with the
/// simulator, so only the host moves its time. It reads a 32 MiB table at
/// random, dependent reads then independent ones, as the router walk reads
/// a radix-16 fabric's state. run.py scales every host time by it. `check`
/// gets a sum of what was read, so that the reads cannot be left out.
double reference_kernel_s(std::uint64_t& check) {
  constexpr std::uint32_t kMask = (1u << 23) - 1;  // 2^23 u32 words
  std::vector<std::uint32_t> table(std::size_t{kMask} + 1);
  for (std::uint32_t i = 0; i <= kMask; ++i) table[i] = i * 2654435761u;
  const double t0 = now_s();
  std::uint32_t x = 1;
  for (std::uint32_t k = 0; k < 1500000; ++k)
    x = table[(x * 2654435761u + k) & kMask];
  std::uint64_t sum = x;
  std::uint32_t y = 7;
  for (std::uint32_t k = 0; k < 15000000; ++k) {
    y = y * 1664525u + 1013904223u;
    sum += table[y & kMask];
  }
  check = sum;
  return now_s() - t0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME [--seed N] "
               "[--scale full|tiny] [--spans FILE]\n"
               "       perfbench --calibrate\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  const double t_start = now_s();
  if (argc == 2 && std::string_view(argv[1]) == "--calibrate") {
    std::uint64_t check = 0;
    JObj o;
    o.num("ref_s", reference_kernel_s(check)).u64("ref_check", check);
    std::printf("%s\n", o.str().c_str());
    return 0;
  }
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--scale") {
      if (v != "full" && v != "tiny") return usage();
      a.tiny = v == "tiny";
    } else if (k == "--spans") {
      a.spans = v;
    } else {
      return usage();
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end())
    return usage();

  const bool traced = !a.spans.empty();
  Tracer tracer;
  if (traced) g_tracer = &tracer;

  Run run;
  const bool closed = a.workload == "tenants-r16";
  core::ScenarioSpec closed_spec;
  OpenLoop open;
  {
    ScopedSpan s("spec");
    const double t0 = now_s();
    if (closed)
      closed_spec = tenants_r16(a);
    else
      open = a.workload == "sweep-fig11a"  ? sweep_fig11a(a)
             : a.workload == "sat-r32-sh2" ? sat_r32_sh2(a)
                                           : faults_online(a);
    run.setup_s += now_s() - t0;
  }
  if (closed)
    run_closed_loop(closed_spec, traced, run);
  else
    run_open_loop(open, traced, run);
  const double wall_s = now_s() - t_start;

  JObj o;
  o.str("workload", a.workload).u64("seed", a.seed);
  o.str("scale", a.tiny ? "tiny" : "full").b("traced", traced);
  o.str("build_type", PERFBENCH_BUILD_TYPE).b("lto", PERFBENCH_LTO != 0);
#if defined(__clang__)
  o.str("compiler", std::string("clang ") + __clang_version__);
#else
  o.str("compiler", std::string("gcc ") + __VERSION__);
#endif
  o.num("wall_s", wall_s).num("setup_s", run.setup_s);
  o.num("engine_s", wall_s - run.setup_s).num("peak_rss_mb", peak_rss_mb());
  o.u64("flit_hops", run.flit_hops);
  o.u64("runs", run.runs).u64("runs_failed", run.runs_failed);
  std::vector<std::string> errs;
  for (const auto& e : run.errors) errs.push_back(jstr(e));
  o.raw("errors", jarr(errs));
  o.num("sim_accepted", run.sim_accepted);
  o.num("sim_latency_cycles", run.sim_latency);
  o.num("sim_ttc_cycles", run.sim_ttc);
  o.raw("points", jarr(run.points)).raw("closed", jarr(run.closed));
  if (traced) {
    o.raw("layers", layers_json(run, wall_s));
    write_spans(a.spans, t_start);
  }
  std::printf("%s\n", o.str().c_str());
  return run.runs_failed == 0 ? 0 : 1;
}

}  // namespace pb

int main(int argc, char** argv) {
  try {
    return pb::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
