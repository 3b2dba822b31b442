// Parallel fabric engine scaling: wall-clock time to simulate a fixed
// virtual horizon of a data-plane-heavy leaf-spine fabric, swept over
// switch count x worker threads. The equivalence contract (identical
// results for any thread count — tests/test_parallel_fabric.cpp) means the
// thread knob is purely a speed knob; this bench measures what it buys.
//
// Speedup is a property of the host: with fewer cores than threads the
// workers timeslice and the barrier rounds cost more than they win, so the
// report records hardware_concurrency alongside every sample. The
// acceptance target (>= 2x at 16 switches / 8 threads) applies on hosts
// with >= 8 cores.
//
// The hot-path profiler (telemetry/prof) runs for every configuration:
// events_per_sec is reported per cell (the headline DES throughput metric;
// wall-clock, so advisory — never gated by bench_regress), and one showcase
// configuration's full cost-attribution breakdown embeds in the report as
// the "prof" section. Extra flags on top of --out:
//   --prof <path>          standalone ProfileReport JSON (showcase config)
//   --prof-folded <path>   folded stacks for flamegraph.pl / speedscope
//   --prof-switches N      showcase topology size    (default 16)
//   --prof-threads T       showcase thread count     (default 4)
//   --overhead-guard       measure profiling overhead (enabled vs disabled)
//                          instead of the sweep; exits 1 only on >2x
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "apps/gray_failure.hpp"
#include "bench_util.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "util/flags.hpp"
#include "workload/flow_classes.hpp"

namespace {

using namespace mantis;

struct ScaleResult {
  double wall_ms = 0;
  std::uint64_t delivered = 0;  ///< cross-check: thread-count invariant
  std::uint64_t events = 0;     ///< event callbacks dispatched (profiler)
  telemetry::prof::ProfileReport prof;

  double events_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(events) * 1000.0 / wall_ms : 0;
  }
};

// Pure data-plane load: link-local traffic in both directions of every
// switch-switch link. Long propagation widens the conservative lookahead
// window, so each barrier round carries enough per-shard work to amortize
// the synchronization — the regime the engine is for.
ScaleResult run_once(int switches, int threads, Time horizon,
                     bool profile = true) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());

  net::FabricConfig fc;
  fc.default_link.propagation = 2000;
  net::Fabric fabric(loop, artifacts.prog,
                     net::Topology::leaf_spine(switches / 2, switches / 2, 1),
                     fc);
  for (std::size_t i = 0; i < fabric.num_links(); ++i) {
    const auto& l = fabric.topo().links[i];
    if (!fabric.topo().is_switch(l.a) || !fabric.topo().is_switch(l.b))
      continue;
    auto make = [&fabric] {
      auto pkt = fabric.factory().make(64);
      fabric.factory().set(pkt, "ipv4.protocol", 253);
      return pkt;
    };
    fabric.start_periodic(l.a, l.b, 100, horizon, make);
    fabric.start_periodic(l.b, l.a, 100, horizon, make);
  }

  auto& prof = loop.telemetry().prof();
  prof.set_enabled(profile);

  const auto t0 = std::chrono::steady_clock::now();
  if (threads > 1) {
    net::ParallelFabricEngine engine(fabric, threads);
    engine.run_until(horizon);
  } else {
    loop.run_until(horizon);
  }
  const auto t1 = std::chrono::steady_clock::now();
  prof.set_enabled(false);

  ScaleResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  for (std::size_t i = 0; i < fabric.num_links(); ++i) {
    r.delivered += fabric.link(i).dir_stats(0).delivered_pkts +
                   fabric.link(i).dir_stats(1).delivered_pkts;
  }
  if (profile) {
    r.prof = prof.report();
    r.prof.enabled = true;  // snapshot taken after the disable above
    r.events = r.prof.events;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Datacenter-scale: 1024-switch 3-tier Clos under a million aggregated
// Zipf fluid-TCP flows (workload/flow_classes.hpp). Routes are installed
// structurally (ClosSpec::next_hop_port — no per-switch Dijkstra), only for
// the destinations the workload uses, so setup stays linear in switches.
// ---------------------------------------------------------------------------

// 16 pods x (32 leaves + 16 aggs) + 256 cores = 1024 switches, 1 host/leaf.
constexpr net::ClosSpec kClos{16, 32, 16, 256, 1};
constexpr int kClosClasses = 128;   ///< flow classes (2 per dst host)
constexpr int kClosDsts = 64;       ///< distinct dst hosts (route table <= 256)
constexpr std::uint64_t kClosFlows = 1'048'576;

ScaleResult run_clos_once(int threads, Time horizon, bool profile = false) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());

  net::FabricConfig fc;
  fc.default_link.propagation = 2000;
  // Aggs have the widest radix: L + C/A = 32 + 16 = 48 ports.
  fc.switch_cfg.num_ports = 48;
  net::Fabric fabric(loop, artifacts.prog, net::Topology::clos(kClos), fc);

  // Deterministic endpoint plan: 64 distinct destination leaves (stride 8
  // covers every pod), two classes per destination, sources spread by a
  // coprime stride. Only these 64 addresses need route entries.
  std::vector<workload::FlowClasses::Endpoint> endpoints;
  std::vector<std::uint32_t> dst_addrs;
  for (int k = 0; k < kClosDsts; ++k) {
    dst_addrs.push_back(kClos.host_addr((k * 8 + 3) % kClos.num_leaves(), 0));
  }
  for (int c = 0; c < kClosClasses; ++c) {
    const std::uint32_t dst = dst_addrs[static_cast<std::size_t>(c % kClosDsts)];
    int src_leaf = (c * 37 + 11) % kClos.num_leaves();
    if (kClos.host_addr(src_leaf, 0) == dst) {
      src_leaf = (src_leaf + 1) % kClos.num_leaves();
    }
    endpoints.push_back({kClos.host_addr(src_leaf, 0), dst});
  }
  // Structural route install: every switch gets a next hop per workload
  // destination (65536 entries fabric-wide, 64 per switch).
  for (int sw = 0; sw < kClos.num_switches(); ++sw) {
    auto& route = fabric.switch_at(sw).table("route");
    for (const std::uint32_t addr : dst_addrs) {
      const int port = kClos.next_hop_port(sw, addr);
      if (port < 0) continue;
      p4::EntrySpec spec;
      spec.key.push_back(p4::MatchValue{addr, ~std::uint64_t{0}});
      // The isolation pass gives malleable tables a vv version column; no
      // agent runs here, so packets (and entries) stay on version 0.
      spec.key.push_back(p4::MatchValue{0, ~std::uint64_t{0}});
      spec.action = "set_egress";
      spec.action_args.push_back(static_cast<std::uint64_t>(port));
      route.add_entry(spec);
    }
  }

  workload::FlowClassesConfig wc;
  wc.total_flows = kClosFlows;
  wc.epoch = 20 * kMicrosecond;
  wc.max_samples_per_epoch = 64;
  workload::FlowClasses flows(fabric, wc, std::move(endpoints));

  auto& prof = loop.telemetry().prof();
  prof.set_enabled(true);  // events/sec needs the dispatch counter

  const auto t0 = std::chrono::steady_clock::now();
  if (threads > 1) {
    net::ParallelFabricEngine engine(fabric, threads);
    flows.start(horizon, engine.lookahead());
    engine.run_until(horizon);
  } else {
    flows.start(horizon);
    loop.run_until(horizon);
  }
  const auto t1 = std::chrono::steady_clock::now();
  prof.set_enabled(false);

  ScaleResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.delivered = flows.samples_delivered();
  r.prof = prof.report();
  r.prof.enabled = true;
  r.events = r.prof.events;
  if (!profile) r.prof = telemetry::prof::ProfileReport{};
  return r;
}

/// Satellite: profiling compiled in but *disabled* vs enabled, same small
/// configuration. Soft-warns past the ~5% budget; hard-fails only past 2x
/// (something is badly wrong — e.g. a scope on a per-field path).
int run_overhead_guard(Time horizon) {
  constexpr int kSwitches = 8;
  constexpr int kThreads = 4;
  constexpr int kReps = 3;
  double off_ms = -1, on_ms = -1;
  // Interleave reps and keep minima: least-noise estimate on shared CI hosts.
  for (int rep = 0; rep < kReps; ++rep) {
    const double off = run_once(kSwitches, kThreads, horizon, false).wall_ms;
    const double on = run_once(kSwitches, kThreads, horizon, true).wall_ms;
    if (off_ms < 0 || off < off_ms) off_ms = off;
    if (on_ms < 0 || on < on_ms) on_ms = on;
  }
  const double ratio = off_ms > 0 ? on_ms / off_ms : 1.0;
  std::printf("profiling overhead: disabled %.2f ms, enabled %.2f ms "
              "(%.1f%%)\n",
              off_ms, on_ms, (ratio - 1.0) * 100.0);
  if (ratio > 2.0) {
    std::printf("FAIL: profiling overhead exceeds 2x\n");
    return 1;
  }
  if (ratio > 1.05) {
    std::printf("WARN: profiling overhead above the ~5%% budget (advisory)\n");
  } else {
    std::printf("OK: within the ~5%% budget\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("fabric_scale", argc, argv);
  const unsigned cores = std::thread::hardware_concurrency();
  report.params().set("hardware_concurrency", static_cast<std::int64_t>(cores));

  std::string prof_path, folded_path;
  int prof_switches = 16, prof_threads = 4;
  bool overhead_guard = false;
  bool prof_clos = false;
  try {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--prof-clos") == 0) {
        prof_clos = true;
      } else if (std::strcmp(argv[i], "--prof") == 0 && i + 1 < argc) {
        prof_path = argv[++i];
      } else if (std::strcmp(argv[i], "--prof-folded") == 0 && i + 1 < argc) {
        folded_path = argv[++i];
      } else if (std::strcmp(argv[i], "--prof-switches") == 0) {
        prof_switches = parse_number<int>("--prof-switches",
                                          flag_value(argc, argv, i));
      } else if (std::strcmp(argv[i], "--prof-threads") == 0) {
        prof_threads =
            parse_number<int>("--prof-threads", flag_value(argc, argv, i));
      } else if (std::strcmp(argv[i], "--overhead-guard") == 0) {
        overhead_guard = true;
      }
    }
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const Time horizon = 200 * kMicrosecond;
  if (overhead_guard) return run_overhead_guard(horizon);

  // --prof-clos: skip the sweeps and print per-event-kind attribution for a
  // single sequential 1024-switch Clos run (what is the datacenter-scale
  // hot path actually spending cycles on?).
  if (prof_clos) {
    const auto r = run_clos_once(1, horizon, /*profile=*/true);
    std::printf("clos1024 t1: %.2f ms, %llu events, %.2f Mev/s\n\n", r.wall_ms,
                static_cast<unsigned long long>(r.events),
                r.events_per_sec() / 1e6);
    std::printf("%s\n", r.prof.to_folded().c_str());
    return 0;
  }

  bench::print_header(
      "Parallel fabric engine: wall-clock per 200us virtual horizon "
      "(leaf-spine, saturated link-local traffic)");
  std::printf("host cores: %u (speedup needs cores >= threads)\n\n", cores);
  bench::print_row({"switches", "threads", "wall_ms", "speedup", "Mev/s",
                    "pkts"});

  std::string prof_json, prof_folded;
  bool showcased = false;
  for (const int switches : {4, 8, 16}) {
    double base_ms = 0;
    std::uint64_t base_delivered = 0;
    for (const int threads : {1, 2, 4, 8}) {
      const auto r = run_once(switches, threads, horizon);
      if (threads == 1) {
        base_ms = r.wall_ms;
        base_delivered = r.delivered;
      } else if (r.delivered != base_delivered) {
        std::printf("FAIL: thread-count changed delivery (%llu vs %llu)\n",
                    static_cast<unsigned long long>(r.delivered),
                    static_cast<unsigned long long>(base_delivered));
        return 1;
      }
      const double speedup = r.wall_ms > 0 ? base_ms / r.wall_ms : 0;
      bench::print_row({std::to_string(switches), std::to_string(threads),
                        bench::fmt(r.wall_ms, 2), bench::fmt(speedup, 2),
                        bench::fmt(r.events_per_sec() / 1e6, 2),
                        std::to_string(r.delivered)});
      const std::string key =
          "sw" + std::to_string(switches) + ".t" + std::to_string(threads);
      report.set(key + ".wall_ms", r.wall_ms);
      report.set(key + ".speedup", speedup);
      report.set(key + ".events_per_sec", r.events_per_sec());
      if (switches == prof_switches && threads == prof_threads) {
        prof_json = r.prof.to_json();
        prof_folded = r.prof.to_folded();
        showcased = true;
      }
    }
  }
  // Datacenter-scale Clos sweep. Delivery invariance across thread counts
  // is the same hard determinism check as above; events/sec is the
  // headline (per-switch-normalized too, so it compares against the
  // smaller sweeps). On few-core hosts the parallel rows measure engine
  // overhead, not speedup — same caveat as the leaf-spine sweep.
  std::printf("\n");
  bench::print_header(
      "Datacenter scale: 1024-switch 3-tier Clos (16 pods x 32 leaves x 16 "
      "aggs + 256 cores), 1M+ aggregated Zipf fluid-TCP flows");
  bench::print_row({"topology", "threads", "wall_ms", "speedup", "Mev/s",
                    "samples"});
  {
    double base_ms = 0;
    std::uint64_t base_delivered = 0;
    for (const int threads : {1, 2, 4, 8}) {
      const auto r = run_clos_once(threads, horizon);
      if (threads == 1) {
        base_ms = r.wall_ms;
        base_delivered = r.delivered;
      } else if (r.delivered != base_delivered) {
        std::printf("FAIL: thread-count changed clos delivery (%llu vs %llu)\n",
                    static_cast<unsigned long long>(r.delivered),
                    static_cast<unsigned long long>(base_delivered));
        return 1;
      }
      const double speedup = r.wall_ms > 0 ? base_ms / r.wall_ms : 0;
      bench::print_row({"clos1024", std::to_string(threads),
                        bench::fmt(r.wall_ms, 2), bench::fmt(speedup, 2),
                        bench::fmt(r.events_per_sec() / 1e6, 2),
                        std::to_string(r.delivered)});
      const std::string key = "clos1024.t" + std::to_string(threads);
      report.set(key + ".wall_ms", r.wall_ms);
      report.set(key + ".speedup", speedup);
      report.set(key + ".events_per_sec", r.events_per_sec());
      report.set(key + ".events_per_sec_per_switch",
                 r.events_per_sec() / kClos.num_switches());
    }
    report.set("clos1024.flows", static_cast<std::int64_t>(kClosFlows));
    report.set("clos1024.classes", static_cast<std::int64_t>(kClosClasses));
    report.set("clos1024.delivered_samples",
               static_cast<std::int64_t>(base_delivered));
    std::printf(
        "\n%d switches, %d aggregated classes carrying %llu Zipf flows; "
        "identical sample delivery at every thread count.\n",
        kClos.num_switches(), kClosClasses,
        static_cast<unsigned long long>(kClosFlows));
  }

  // Showcase config outside the default sweep (e.g. --prof-switches 64):
  // run it separately so the attribution breakdown covers what was asked.
  if (!showcased) {
    const auto r = run_once(prof_switches, prof_threads, horizon);
    const std::string key = "sw" + std::to_string(prof_switches) + ".t" +
                            std::to_string(prof_threads);
    report.set(key + ".wall_ms", r.wall_ms);
    report.set(key + ".events_per_sec", r.events_per_sec());
    bench::print_row({std::to_string(prof_switches),
                      std::to_string(prof_threads), bench::fmt(r.wall_ms, 2),
                      "-", bench::fmt(r.events_per_sec() / 1e6, 2),
                      std::to_string(r.delivered)});
    prof_json = r.prof.to_json();
    prof_folded = r.prof.to_folded();
  }

  report.set_prof(prof_json);
  if (!prof_path.empty()) {
    telemetry::write_text_file(prof_path, prof_json);
    std::printf("profile: %s\n", prof_path.c_str());
  }
  if (!folded_path.empty()) {
    telemetry::write_text_file(folded_path, prof_folded);
    std::printf("folded stacks: %s\n", folded_path.c_str());
  }

  std::printf(
      "\nEvery configuration delivers the identical packet set (the\n"
      "determinism contract), so the sweep isolates pure engine cost:\n"
      "barrier rounds vs single-queue sequential dispatch. The \"prof\"\n"
      "section of the report attributes host cycles and allocations per\n"
      "event kind for sw%d.t%d.\n",
      prof_switches, prof_threads);
  report.write();
  return 0;
}
