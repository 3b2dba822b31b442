#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <sstream>

#include "agent/agent.hpp"
#include "apps/gray_failure.hpp"
#include "compile/compiler.hpp"
#include "driver/driver.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "net/scenarios.hpp"
#include "sim/switch.hpp"
#include "util/stats.hpp"
#include "workload/flow_classes.hpp"

namespace perfbench {

using namespace mantis;
namespace prof = telemetry::prof;

namespace {

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) {
  return static_cast<double>(host_now_ns() - t0) * 1e-9;
}

/// Input generator. Kept apart from the library's util::Rng so that a
/// library change can never alter the generated inputs.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

template <typename T>
void shuffle(std::vector<T>& v, SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
}

/// FNV-1a over a canonical text form (final route-table digests).
std::string digest_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double us(Duration ns) { return static_cast<double>(ns) / kMicrosecond; }

/// Mean self time per call of a profiler site, ns (0 when never entered).
double site_ns(const prof::ProfileReport& r, const char* name) {
  for (const auto& s : r.sites) {
    if (s.name == name) {
      return s.count == 0 ? 0.0
                          : static_cast<double>(s.self_ns) /
                                static_cast<double>(s.count);
    }
  }
  return 0.0;
}

std::uint64_t site_self_ns(const prof::ProfileReport& r, const char* name) {
  for (const auto& s : r.sites) {
    if (s.name == name) return s.self_ns;
  }
  return 0;
}

/// Fills every layer metric with 0, so each traced repetition reports the
/// full set; workloads then overwrite what they measure.
Values zero_layers() {
  Values v;
  for (const auto& [name, unit] : layer_metric_units()) v[name] = 0.0;
  return v;
}

/// Profiler-derived layer metrics shared by all workloads. `run_ns` is the
/// run phase's wall time, the base of the unattributed share.
void profiler_layers(const prof::ProfileReport& r, double run_ns, Values& v) {
  v["net.link.transmit_ns"] = site_ns(r, "link.transmit");
  v["net.link.deliver_ns"] = site_ns(r, "link.deliver");
  v["net.engine.rounds"] = static_cast<double>(r.rounds.rounds);
  v["net.engine.barrier_stall_ms"] =
      static_cast<double>(r.rounds.barrier_stall_ns) * 1e-6;
  v["net.engine.imbalance"] = r.rounds.rounds == 0 ? 0.0 : r.rounds.imbalance();
  const double pushes =
      static_cast<double>(r.heap.pushes + r.heap.local_pushes);
  v["net.engine.outbox_share"] =
      pushes == 0 ? 0.0 : static_cast<double>(r.heap.outbox_pushes) / pushes;
  v["net.engine.queue_pushes"] = pushes;
  v["sim.pipeline.ingress_ns"] = site_ns(r, "switch.ingress");
  v["sim.pipeline.egress_ns"] = site_ns(r, "switch.egress");
  v["sim.tm.enqueue_ns"] = site_ns(r, "tm.enqueue");
  v["sim.tm.dequeue_ns"] = site_ns(r, "tm.dequeue");
  v["sim.event_loop.events"] = static_cast<double>(r.events);
  v["sim.event_loop.dispatch_ns"] =
      r.events == 0 ? 0.0
                    : static_cast<double>(site_self_ns(r, "event.dispatch")) /
                          static_cast<double>(r.events);
  v["sim.event_loop.queue_peak"] = static_cast<double>(r.heap.peak_depth);
  v["sim.event_loop.allocs_per_event"] = r.allocs_per_event();
  v["driver.channel.submit_ns"] = site_ns(r, "driver.channel_submit");
  v["driver.channel.completion_ns"] = site_ns(r, "driver.channel_completion");
  v["agent.dialogue_self_us"] = site_ns(r, "agent.dialogue") * 1e-3;
  const double root_self = static_cast<double>(site_self_ns(r, "bench.run")) -
                           static_cast<double>(r.rounds.barrier_stall_ns);
  v["telemetry.unattributed_share"] =
      run_ns <= 0 ? 0.0 : std::max(0.0, root_self) / run_ns;
}

/// Switch-side counters: ingress passes, table hit ratio, TM tail drops.
struct SwitchTotals {
  std::uint64_t pkts = 0;
  std::uint64_t hits = 0;
  std::uint64_t lookups = 0;
  std::uint64_t tail_drops = 0;

  void add(const sim::Switch& sw) {
    pkts += sw.ingress_stats().packets;
    for (const auto* st : {&sw.ingress_stats(), &sw.egress_stats()}) {
      hits += st->table_hits;
      lookups += st->table_hits + st->table_misses;
    }
    const auto& tm = sw.traffic_manager();
    for (int p = 0; p < tm.num_ports(); ++p) tail_drops += tm.stats(p).tail_drops;
  }
  void to_layers(Values& v) const {
    v["sim.table.hit_ratio"] =
        lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
    v["sim.table.lookups"] = static_cast<double>(lookups);
    v["sim.tm.tail_drops"] = static_cast<double>(tail_drops);
  }
};

void link_layers(net::Fabric& fabric, Values& v) {
  std::uint64_t tx = 0, dropped = 0;
  for (std::size_t i = 0; i < fabric.num_links(); ++i) {
    for (int dir = 0; dir < 2; ++dir) {
      tx += fabric.link(i).dir_stats(dir).tx_pkts;
      dropped += fabric.link(i).dir_stats(dir).dropped_pkts;
    }
  }
  v["net.link.drop_ratio"] =
      tx == 0 ? 0.0 : static_cast<double>(dropped) / static_cast<double>(tx);
  v["net.link.tx_pkts"] = static_cast<double>(tx);
}

void driver_layers(telemetry::MetricsRegistry& m, Values& v) {
  v["driver.channel.queue_wait_us.p50"] =
      m.histogram("driver.channel.queue_wait_ns").count() == 0
          ? 0.0
          : m.histogram("driver.channel.queue_wait_ns").quantile(0.5) * 1e-3;
  v["driver.sync_ops"] = static_cast<double>(m.counter("driver.sync_ops").value());
  v["driver.async.batches"] =
      static_cast<double>(m.counter("driver.async.batches").value());
  v["driver.async.aborted_batches"] =
      static_cast<double>(m.counter("driver.async.aborted_batches").value());
}

/// The §8.1 terms as pooled means over every agent's iterations (virtual).
void phase_layers(telemetry::MetricsRegistry& m, std::size_t agents, Values& v) {
  double mv = 0, measure = 0, react = 0, update = 0, n = 0;
  for (std::size_t i = 0; i < agents; ++i) {
    const std::string p = i == 0 ? "agent." : "agent" + std::to_string(i) + ".";
    const auto& h = m.histogram(p + "phase.mv_flip_ns");
    const double c = static_cast<double>(h.count());
    mv += h.stats().mean() * c;
    measure += m.histogram(p + "phase.measure_ns").stats().mean() * c;
    react += m.histogram(p + "phase.react_ns").stats().mean() * c;
    update += m.histogram(p + "phase.update_ns").stats().mean() * c;
    n += c;
  }
  if (n == 0) return;
  v["agent.mv_flip_us"] = mv / n * 1e-3;
  v["agent.measure_react_us"] = (measure + react) / n * 1e-3;
  v["agent.update_us"] = update / n * 1e-3;
}

/// Median plus p99 when at least ten samples lie beyond it (n >= 1000),
/// with the sample count.
void latency_metrics(const Samples& s, const std::string& name, Values& v) {
  v[name + ".n"] = static_cast<double>(s.count());
  if (s.count() == 0) return;
  v[name + ".p50"] = s.percentile(50.0);
  if (s.count() >= 1000) v[name + ".p99"] = s.percentile(99.0);
}

/// Reads the host clock at fixed virtual instants of the run phase (the
/// per-epoch slices of net.engine.slice_ms). A checkpoint is a control
/// event: it runs on the main thread between engine rounds and touches no
/// simulation state.
class Checkpoints {
 public:
  Checkpoints(sim::EventLoop& loop, Duration every, Time until)
      : loop_(&loop), every_(every), until_(until) {
    loop.schedule_at(every, [this, every] { fire(every); });
  }
  Checkpoints(const Checkpoints&) = delete;
  Checkpoints& operator=(const Checkpoints&) = delete;

  /// Host milliseconds from `run_start_ns` to the first checkpoint and
  /// between consecutive checkpoints.
  Samples slices_ms(std::int64_t run_start_ns) const {
    Samples out;
    std::int64_t prev = run_start_ns;
    for (const std::int64_t t : host_ns_) {
      out.add(static_cast<double>(t - prev) * 1e-6);
      prev = t;
    }
    return out;
  }

 private:
  void fire(Time t) {
    host_ns_.push_back(host_now_ns());
    if (t + every_ <= until_) {
      loop_->schedule_at(t + every_, [this, next = t + every_] { fire(next); });
    }
  }

  sim::EventLoop* loop_;
  Duration every_;
  Time until_;
  std::vector<std::int64_t> host_ns_;
};

// ---------------------------------------------------------------------------
// clos_dataplane

constexpr net::ClosSpec kClos{16, 32, 16, 256, 1};  // 1024 switches
constexpr int kClosClasses = 128;                  // 2 per destination
constexpr int kClosDsts = 64;
constexpr std::uint64_t kClosFlows = 1'048'576;
constexpr Time kClosHorizon = 200 * kMicrosecond;
constexpr Duration kClosEpoch = 20 * kMicrosecond;

}  // namespace

RepResult run_clos_dataplane(const RepOptions& opts, SpanLog& spans) {
  RepResult res;
  const std::int64_t t0 = host_now_ns();
  sim::EventLoop loop;
  auto& profiler = loop.telemetry().prof();
  profiler.set_enabled(opts.traced);
  Values layers = zero_layers();
  std::optional<Span> setup_span;
  setup_span.emplace(&spans, "bench.setup", &profiler);

  compile::Artifacts artifacts;
  {
    Span s(&spans, "compile.source", &profiler);
    artifacts = compile::compile_source(apps::gray_failure_p4r_source());
    layers["compile.source_ms"] = static_cast<double>(s.elapsed_ns()) * 1e-6;
  }

  // Endpoint plan from the seed: 64 distinct destination leaves, sources
  // drawn per class (never the destination itself).
  SplitMix64 rng{opts.seed ^ 0xc105c105ULL};
  std::vector<int> leaves(static_cast<std::size_t>(kClos.num_leaves()));
  std::iota(leaves.begin(), leaves.end(), 0);
  shuffle(leaves, rng);
  std::vector<std::uint32_t> dst_addrs;
  for (int k = 0; k < kClosDsts; ++k) {
    dst_addrs.push_back(kClos.host_addr(leaves[static_cast<std::size_t>(k)], 0));
  }
  std::vector<workload::FlowClasses::Endpoint> endpoints;
  for (int c = 0; c < kClosClasses; ++c) {
    const std::uint32_t dst = dst_addrs[static_cast<std::size_t>(c % kClosDsts)];
    std::uint32_t src = dst;
    while (src == dst) {
      src = kClos.host_addr(static_cast<int>(rng.below(leaves.size())), 0);
    }
    endpoints.push_back({src, dst});
  }

  net::FabricConfig fc;
  fc.default_link.propagation = 2000;
  fc.switch_cfg.num_ports = 48;  // aggs: 32 leaves + 16 cores
  fc.base_seed = opts.seed;
  std::optional<net::Fabric> fabric;
  {
    Span s(&spans, "net.fabric.build", &profiler);
    fabric.emplace(loop, artifacts.prog, net::Topology::clos(kClos), fc);
    layers["net.fabric.build_ms"] = static_cast<double>(s.elapsed_ns()) * 1e-6;
  }
  {
    // Structural routes: one next hop per workload destination per switch.
    Span s(&spans, "sim.table.install", &profiler);
    std::uint64_t installed = 0;
    for (int sw = 0; sw < kClos.num_switches(); ++sw) {
      auto& route = fabric->switch_at(sw).table("route");
      for (const std::uint32_t addr : dst_addrs) {
        const int port = kClos.next_hop_port(sw, addr);
        if (port < 0) continue;
        p4::EntrySpec spec;
        spec.key.push_back(p4::MatchValue{addr, ~std::uint64_t{0}});
        spec.key.push_back(p4::MatchValue{0, ~std::uint64_t{0}});  // vv 0
        spec.action = "set_egress";
        spec.action_args.push_back(static_cast<std::uint64_t>(port));
        route.add_entry(spec);
        ++installed;
      }
    }
    layers["sim.table.install_ns"] =
        static_cast<double>(s.elapsed_ns()) / static_cast<double>(installed);
  }

  workload::FlowClassesConfig wc;
  wc.total_flows = kClosFlows;
  wc.epoch = kClosEpoch;
  wc.max_samples_per_epoch = 64;
  workload::FlowClasses flows(*fabric, wc, std::move(endpoints));
  net::ParallelFabricEngine engine(*fabric, opts.threads);
  const Time epochs = std::max<Time>(
      1, static_cast<Time>(static_cast<double>(kClosHorizon / kClosEpoch) * opts.scale));
  const Time horizon = epochs * kClosEpoch;
  flows.start(horizon, engine.lookahead());
  setup_span.reset();
  res.setup_s = seconds_since(t0);

  // One checkpoint per FlowClasses epoch.
  Checkpoints checkpoints(loop, kClosEpoch, horizon);
  const std::int64_t r0 = host_now_ns();
  {
    Span run(&spans, "bench.run", &profiler);
    engine.run_until(horizon);
  }
  const std::int64_t r1 = host_now_ns();
  const double run_ns = static_cast<double>(r1 - r0);
  res.run_s = run_ns * 1e-9;
  profiler.set_enabled(false);

  SwitchTotals totals;
  for (int sw = 0; sw < kClos.num_switches(); ++sw) totals.add(fabric->switch_at(sw));
  res.pkts = static_cast<double>(totals.pkts);
  const std::uint64_t sent = flows.samples_sent();
  const std::uint64_t delivered = flows.samples_delivered();
  res.outputs["delivered_samples"] = std::to_string(delivered);
  res.outputs["sent_samples"] = std::to_string(sent);
  res.outputs["ingress_pkts"] = std::to_string(totals.pkts);
  res.virtual_metrics["delivered_ratio"] =
      sent == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(sent);
  res.virtual_metrics["delivered_ratio.base"] = static_cast<double>(sent);

  if (opts.traced) {
    const auto report = profiler.report();
    profiler_layers(report, run_ns, layers);
    res.prof_json = report.to_json();
    totals.to_layers(layers);
    link_layers(*fabric, layers);
    driver_layers(loop.telemetry().metrics(), layers);
    layers["workload.flow_classes.samples_sent"] = static_cast<double>(sent);
    latency_metrics(checkpoints.slices_ms(r0), "net.engine.slice_ms", layers);
    res.layers = std::move(layers);
  }
  return res;
}

// ---------------------------------------------------------------------------
// gray_reactive

namespace {
constexpr Time kGrayFaultAt = 5 * kMillisecond;
constexpr Time kGrayHorizon = 15 * kMillisecond;
}  // namespace

RepResult run_gray_reactive(const RepOptions& opts, SpanLog& spans) {
  RepResult res;
  Values layers = zero_layers();
  const std::int64_t t0 = host_now_ns();

  net::GrayScenarioConfig cfg;
  cfg.leaves = 8;
  cfg.spines = 8;
  cfg.seed = opts.seed;
  cfg.hb_period = 1 * kMicrosecond;
  cfg.fault_loss = 1.0;
  cfg.pacing = 0;  // busy-loop agents, sync driver
  cfg.threads = opts.threads;
  // Smoke runs (scale < 1) move the fault to 1 ms, still after the
  // prologues, and shorten the post-fault window.
  cfg.fault_at = opts.scale >= 1.0 ? kGrayFaultAt : kMillisecond;
  cfg.run_until = opts.scale >= 1.0
                      ? kGrayHorizon
                      : cfg.fault_at + std::max<Time>(
                            kMillisecond, static_cast<Time>(
                                static_cast<double>(kGrayHorizon - kGrayFaultAt) *
                                opts.scale));

  std::optional<net::GrayFabricScenario> scenario;
  {
    Span s(&spans, "net.scenario.build");
    scenario.emplace(cfg);
    layers["net.scenario.build_ms"] = static_cast<double>(s.elapsed_ns()) * 1e-6;
  }
  auto& loop = scenario->loop();
  auto& profiler = loop.telemetry().prof();
  profiler.set_enabled(opts.traced);

  // The scenario's run() schedules traffic, then runs the prologues while
  // heartbeats already flow: set-up ends at the first dispatched event.
  std::int64_t first_event_ns = 0;
  loop.schedule_at(0, [&first_event_ns] { first_event_ns = host_now_ns(); });
  net::GrayScenarioResult out;
  {
    Span run(&spans, "bench.run", &profiler);
    out = scenario->run();
  }
  const std::int64_t end_ns = host_now_ns();
  profiler.set_enabled(false);
  res.setup_s = static_cast<double>(first_event_ns - t0) * 1e-9;
  const double run_ns = static_cast<double>(end_ns - first_event_ns);
  res.run_s = run_ns * 1e-9;

  auto& fabric = scenario->fabric();
  auto& harness = scenario->harness();
  SwitchTotals totals;
  for (int sw = 0; sw < fabric.num_switches(); ++sw) totals.add(fabric.switch_at(sw));
  res.pkts = static_cast<double>(totals.pkts);
  res.dialogues = static_cast<double>(harness.total_iterations());

  res.outputs["restored"] = out.restored() ? "true" : "false";
  res.outputs["detected_at_ns"] = std::to_string(out.detected_at);
  res.outputs["restored_at_ns"] = std::to_string(out.restored_at);
  res.outputs["delivered_pkts"] = std::to_string(out.delivered);
  res.outputs["ingress_pkts"] = std::to_string(totals.pkts);
  res.virtual_metrics["detect_us"] = us(out.detection_latency());
  res.virtual_metrics["restore_us"] = us(out.restoration_latency());
  Samples reaction;
  for (const net::NodeId n : harness.nodes()) {
    for (const double ns : harness.agent_at(n).iteration_latencies().values()) {
      reaction.add(ns * 1e-3);
    }
  }
  latency_metrics(reaction, "reaction_us", res.virtual_metrics);

  if (opts.traced) {
    {
      // The scenario compiles inside its constructor; time the same source
      // on its own for the compile layer's unit cost.
      int monitored = 8;
      for (net::NodeId n = 0; n < fabric.topo().num_switches; ++n) {
        for (const int p : fabric.topo().switch_facing_ports(n)) {
          monitored = std::max(monitored, p + 1);
        }
      }
      Span s(&spans, "compile.source");
      compile::compile_source(apps::gray_failure_p4r_source(monitored));
      layers["compile.source_ms"] = static_cast<double>(s.elapsed_ns()) * 1e-6;
    }
    auto& metrics = loop.telemetry().metrics();
    const auto report = profiler.report();
    profiler_layers(report, run_ns, layers);
    res.prof_json = report.to_json();
    totals.to_layers(layers);
    link_layers(fabric, layers);
    driver_layers(metrics, layers);
    phase_layers(metrics, harness.num_agents(), layers);
    res.layers = std::move(layers);
  }
  return res;
}

// ---------------------------------------------------------------------------
// route_churn

namespace {

constexpr int kRoutes = 240;
constexpr int kModsPerIter = 32;
constexpr int kBlockPerIter = 8;
constexpr int kChurnIterations = 10'000;
constexpr Duration kPktGap = 1 * kMicrosecond;  // 1 Mpps
constexpr std::uint32_t kPktBytes = 256;
constexpr int kEgressPorts = 8;
constexpr std::uint32_t kRouteBase = 0x0a000000u;
constexpr std::uint32_t kBlockBase = 0x0c000000u;

/// What the reaction does per iteration, generated from the seed. Every
/// key and port is a pure function of (iteration, index), so the table the
/// churn should leave behind is replayed from the plan after the run, away
/// from the timed reaction.
struct ChurnPlan {
  std::vector<std::uint32_t> route_keys;  ///< churn order (seeded)
  std::uint64_t block_base = 0;           ///< seeded offset of blocklist keys

  static std::uint64_t initial_port(int i) {
    return 1 + static_cast<std::uint64_t>(i) % kEgressPorts;
  }
  std::uint32_t mod_key(int iter, int j) const {
    return route_keys[static_cast<std::size_t>((iter * kModsPerIter + j) % kRoutes)];
  }
  static std::uint64_t mod_port(int iter, int j) {
    return 1 + static_cast<std::uint64_t>(iter + j) % kEgressPorts;
  }
  std::uint32_t block_key(int iter, int j) const {
    return kBlockBase + static_cast<std::uint32_t>(
                            (block_base + static_cast<std::uint64_t>(iter) *
                                              kBlockPerIter + j) & 0xffffffu);
  }
};

using Rows = std::map<std::uint64_t, std::string>;  ///< user key -> "action args"

std::string entry_text(const std::string& action, const std::vector<std::uint64_t>& args) {
  std::string s = action;
  for (const auto a : args) s += " " + std::to_string(a);
  return s;
}

/// The user-visible route table after the prologue and `iterations`
/// reactions, replayed from the plan alone: the independent oracle.
Rows expected_rows(const ChurnPlan& plan, int iterations) {
  Rows rows;
  for (int i = 0; i < kRoutes; ++i) {
    rows[plan.route_keys[static_cast<std::size_t>(i)]] =
        entry_text("set_egress", {ChurnPlan::initial_port(i)});
  }
  for (int it = 0; it < iterations; ++it) {
    for (int j = 0; j < kModsPerIter; ++j) {
      rows[plan.mod_key(it, j)] = entry_text("set_egress", {ChurnPlan::mod_port(it, j)});
    }
    for (int j = 0; j < kBlockPerIter; ++j) rows[plan.block_key(it, j)] = entry_text("_drop", {});
    for (int j = 0; it > 0 && j < kBlockPerIter; ++j) rows.erase(plan.block_key(it - 1, j));
  }
  return rows;
}

/// A table's live entries whose vv key column equals `vv`.
Rows table_rows(const sim::TableState& t, std::uint64_t vv) {
  Rows rows;
  for (const auto h : t.handles()) {
    const auto& e = t.entry(h);
    if (e.key.size() < 2 || e.key[1].value != vv) continue;
    rows[e.key[0].value] = entry_text(e.action, e.action_args);
  }
  return rows;
}

/// Canonical text of a table: "key action args" lines in key order.
std::string rows_text(const Rows& rows) {
  std::string out;
  for (const auto& [k, v] : rows) out += std::to_string(k) + " " + v + "\n";
  return out;
}

}  // namespace

RepResult run_route_churn(const RepOptions& opts, SpanLog& spans) {
  RepResult res;
  Values layers = zero_layers();
  const std::int64_t t0 = host_now_ns();
  sim::EventLoop loop;
  auto& profiler = loop.telemetry().prof();
  profiler.set_enabled(opts.traced);
  std::optional<Span> setup_span;
  setup_span.emplace(&spans, "bench.setup", &profiler);

  compile::Artifacts artifacts;
  {
    Span s(&spans, "compile.source", &profiler);
    artifacts = compile::compile_source(apps::gray_failure_p4r_source());
    layers["compile.source_ms"] = static_cast<double>(s.elapsed_ns()) * 1e-6;
  }
  sim::Switch sw(loop, artifacts.prog);
  driver::Driver drv(sw);
  agent::AgentOptions aopts;
  aopts.async_push = true;
  agent::Agent agent(drv, artifacts, aopts);

  ChurnPlan plan;
  SplitMix64 rng{opts.seed ^ 0xc4a7c4a7ULL};
  for (int i = 0; i < kRoutes; ++i) plan.route_keys.push_back(kRouteBase + 1 + i);
  shuffle(plan.route_keys, rng);
  plan.block_base = rng.next() & 0xffffu;

  std::map<std::uint32_t, agent::UserEntryId> route_ids;
  std::vector<agent::UserEntryId> new_blocks, last_blocks;
  int iter = 0;
  std::int64_t ctx_ns = 0;
  std::uint64_t ctx_ops = 0;  ///< user route updates issued by the reaction
  auto route_spec = [](std::uint32_t key, const std::string& action,
                       std::vector<std::uint64_t> args) {
    p4::EntrySpec spec;
    spec.key.push_back(p4::MatchValue{key, ~std::uint64_t{0}});
    spec.action = action;
    spec.action_args = std::move(args);
    return spec;
  };

  // The ECMP rebalance storm plus blocklist burst, as the native gf_react.
  agent.set_native_reaction("gf_react", [&](agent::ReactionContext& ctx) {
    const std::int64_t c0 = host_now_ns();
    for (int j = 0; j < kModsPerIter; ++j) {
      ctx.mod_entry("route", route_ids.at(plan.mod_key(iter, j)), "set_egress",
                    {ChurnPlan::mod_port(iter, j)});
    }
    new_blocks.clear();
    for (int j = 0; j < kBlockPerIter; ++j) {
      new_blocks.push_back(
          ctx.add_entry("route", route_spec(plan.block_key(iter, j), "_drop", {})));
    }
    for (const auto id : last_blocks) ctx.del_entry("route", id);
    ctx_ops += kModsPerIter + new_blocks.size() + last_blocks.size();
    std::swap(new_blocks, last_blocks);
    ctx_ns += host_now_ns() - c0;
  });

  {
    Span s(&spans, "agent.prologue", &profiler);
    agent.run_prologue([&](agent::ReactionContext& ctx) {
      for (int i = 0; i < kRoutes; ++i) {
        const std::uint32_t key = plan.route_keys[static_cast<std::size_t>(i)];
        route_ids[key] = ctx.add_entry(
            "route", route_spec(key, "set_egress", {ChurnPlan::initial_port(i)}));
      }
    });
    layers["agent.prologue_ms"] = static_cast<double>(s.elapsed_ns()) * 1e-6;
  }

  // 1 Mpps of 256-byte packets cycling their destination over the routes.
  struct PacketSource {
    sim::EventLoop* loop;
    sim::Switch* sw;
    const std::vector<std::uint32_t>* keys;
    std::size_t next = 0;
    void fire() {
      auto pkt = sw->factory().make(kPktBytes);
      sw->factory().set(pkt, "ipv4.dstAddr", (*keys)[next]);
      sw->factory().set(pkt, "ipv4.protocol", 6);
      next = (next + 1) % keys->size();
      sw->inject(std::move(pkt), 0);
      loop->schedule_in(kPktGap, [this] { fire(); });
    }
  };
  PacketSource source{&loop, &sw, &plan.route_keys};
  loop.schedule_in(kPktGap, [&source] { source.fire(); });

  const int iterations =
      std::max(1000, static_cast<int>(kChurnIterations * opts.scale));
  Samples host_iter_us;
  host_iter_us.reserve(static_cast<std::size_t>(iterations));
  setup_span.reset();
  res.setup_s = seconds_since(t0);

  const Time v0 = loop.now();
  ctx_ns = 0;
  ctx_ops = 0;
  const std::int64_t r0 = host_now_ns();
  {
    Span run(&spans, "bench.run", &profiler);
    for (iter = 0; iter < iterations; ++iter) {
      if (opts.traced) {
        Span s(&spans, "agent.iteration", &profiler, prof::EventKind::kAgentPoll);
        agent.dialogue_iteration();
        host_iter_us.add(static_cast<double>(s.elapsed_ns()) * 1e-3);
      } else {
        agent.dialogue_iteration();
      }
    }
    agent.drain_pending_pushes();
  }
  const std::int64_t r1 = host_now_ns();
  const double run_ns = static_cast<double>(r1 - r0);
  res.run_s = run_ns * 1e-9;
  const Duration vspan = loop.now() - v0;
  profiler.set_enabled(false);

  SwitchTotals totals;
  totals.add(sw);
  res.pkts = static_cast<double>(totals.pkts);
  res.dialogues = static_cast<double>(iterations);

  auto& metrics = loop.telemetry().metrics();
  const std::uint64_t aborted = metrics.counter("driver.async.aborted_batches").value();
  const auto& route = sw.table("route");
  const Rows live = table_rows(route, static_cast<std::uint64_t>(agent.vv()));
  const Rows shadow = table_rows(route, static_cast<std::uint64_t>(agent.vv() ^ 1));
  const Rows model = expected_rows(plan, iterations);
  res.outputs["aborted_batches"] = std::to_string(aborted);
  res.outputs["route_digest"] = digest_hex(rows_text(live));
  res.outputs["route_entries"] = std::to_string(live.size());
  res.outputs["ingress_pkts"] = std::to_string(totals.pkts);
  // Both table versions must equal the replayed plan, whatever the
  // reference file says.
  res.outputs["matches_model"] = live == model && shadow == model ? "true" : "false";

  res.virtual_metrics["updates_per_s"] =
      vspan <= 0 ? 0.0 : static_cast<double>(ctx_ops) * 1e9 / static_cast<double>(vspan);
  Samples reaction;
  for (const double ns : agent.iteration_latencies().values()) reaction.add(ns * 1e-3);
  latency_metrics(reaction, "reaction_us", res.virtual_metrics);

  if (opts.traced) {
    const auto report = profiler.report();
    profiler_layers(report, run_ns, layers);
    res.prof_json = report.to_json();
    totals.to_layers(layers);
    driver_layers(metrics, layers);
    phase_layers(metrics, 1, layers);
    latency_metrics(host_iter_us, "agent.iteration_host_us", layers);
    layers["agent.ctx_op_ns"] =
        ctx_ops == 0 ? 0.0 : static_cast<double>(ctx_ns) / static_cast<double>(ctx_ops);
    res.layers = std::move(layers);
  }
  return res;
}

// ---------------------------------------------------------------------------

Span::Span(SpanLog* log, const char* name, prof::Profiler* prof,
           prof::EventKind kind)
    : log_(log), t0_(host_now_ns()) {
  if (prof != nullptr && prof->enabled()) {
    // One site per span name; the registry is process-wide and idempotent
    // per name only through this cache.
    static std::map<std::string, prof::SiteId> sites;
    auto it = sites.find(name);
    if (it == sites.end()) it = sites.emplace(name, prof::register_site(name, kind)).first;
    scope_.emplace(prof, it->second);
  }
  if (log_ == nullptr) return;
  parent_ = log_->open;
  if (log_->records.size() >= SpanLog::kMaxRecords) {
    ++log_->dropped;
    return;
  }
  index_ = static_cast<int>(log_->records.size());
  log_->records.push_back({name, log_->rep, parent_, t0_, 0});
  log_->open = index_;
}

Span::~Span() {
  scope_.reset();
  if (log_ == nullptr) return;
  if (index_ >= 0) {
    log_->records[static_cast<std::size_t>(index_)].dur_ns = host_now_ns() - t0_;
    log_->open = parent_;
  }
}

std::int64_t Span::elapsed_ns() const { return host_now_ns() - t0_; }

std::string SpanLog::chrome_json() const {
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  const std::int64_t base = records.empty() ? 0 : records.front().start_ns;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << r.name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << static_cast<double>(r.start_ns - base) * 1e-3
       << ", \"dur\": " << static_cast<double>(r.dur_ns) * 1e-3
       << ", \"args\": {\"rep\": " << r.rep << ", \"id\": " << i
       << ", \"parent\": " << r.parent << "}}";
  }
  os << "\n], \"dropped\": " << dropped << "}\n";
  return os.str();
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"compile.source_ms", "ms"},
      {"net.fabric.build_ms", "ms"},
      {"net.scenario.build_ms", "ms"},
      {"net.link.transmit_ns", "ns"},
      {"net.link.deliver_ns", "ns"},
      {"net.link.drop_ratio", "ratio"},
      {"net.link.tx_pkts", "count"},
      {"net.engine.rounds", "count"},
      {"net.engine.barrier_stall_ms", "ms"},
      {"net.engine.imbalance", "ratio"},
      {"net.engine.outbox_share", "ratio"},
      {"net.engine.queue_pushes", "count"},
      {"net.engine.slice_ms.p50", "ms"},
      {"net.engine.slice_ms.n", "count"},
      {"sim.table.install_ns", "ns"},
      {"sim.table.hit_ratio", "ratio"},
      {"sim.table.lookups", "count"},
      {"sim.pipeline.ingress_ns", "ns"},
      {"sim.pipeline.egress_ns", "ns"},
      {"sim.tm.enqueue_ns", "ns"},
      {"sim.tm.dequeue_ns", "ns"},
      {"sim.tm.tail_drops", "count"},
      {"sim.event_loop.events", "count"},
      {"sim.event_loop.dispatch_ns", "ns"},
      {"sim.event_loop.queue_peak", "count"},
      {"sim.event_loop.allocs_per_event", "ratio"},
      {"workload.flow_classes.samples_sent", "count"},
      {"driver.channel.submit_ns", "ns"},
      {"driver.channel.completion_ns", "ns"},
      {"driver.channel.queue_wait_us.p50", "vus"},
      {"driver.sync_ops", "count"},
      {"driver.async.batches", "count"},
      {"driver.async.aborted_batches", "count"},
      {"agent.iteration_host_us.p50", "us"},
      {"agent.iteration_host_us.p99", "us"},
      {"agent.iteration_host_us.n", "count"},
      {"agent.ctx_op_ns", "ns"},
      {"agent.dialogue_self_us", "us"},
      {"agent.prologue_ms", "ms"},
      {"agent.mv_flip_us", "vus"},
      {"agent.measure_react_us", "vus"},
      {"agent.update_us", "vus"},
      {"telemetry.unattributed_share", "ratio"},
  };
  return kUnits;
}

}  // namespace perfbench
