// Sequential-vs-parallel equivalence suite for the fabric engine.
//
// The determinism contract (docs/NETWORK.md): for any seed, topology, fault
// schedule, and thread count, net::ParallelFabricEngine produces *the same
// execution* as the sequential event loop — same packet orders, same
// telemetry counters and histograms, same flight-recorder dumps. These
// tests enforce the contract byte-for-byte: every signature string below is
// compared with EXPECT_EQ against the threads=1 baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/gray_failure.hpp"
#include "compile/compiler.hpp"
#include "int/scenario.hpp"
#include "net/engine.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"
#include "net/scenarios.hpp"
#include "net/topology.hpp"
#include "sim/event_loop.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/flow_classes.hpp"

namespace mantis {
namespace {

// ---------------------------------------------------------------------------
// Run signatures: everything the contract promises is byte-identical.
// ---------------------------------------------------------------------------

struct RunSignature {
  std::string events;   ///< scenario / injector event log, joined
  std::string metrics;  ///< MetricsRegistry::snapshot_json
  std::string mfr;      ///< flight-recorder text dump (canonical ring order)
  std::string stats;    ///< link DirStats + fabric counters, formatted

  bool operator==(const RunSignature&) const = default;
};

std::string join(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string link_stats_text(net::Fabric& fabric) {
  std::ostringstream os;
  for (std::size_t i = 0; i < fabric.num_links(); ++i) {
    net::Link& l = fabric.link(i);
    for (int dir = 0; dir < 2; ++dir) {
      const auto& s = l.dir_stats(dir);
      os << l.name() << (dir == 0 ? " ab " : " ba ") << s.tx_pkts << ' '
         << s.tx_bytes << ' ' << s.delivered_pkts << ' ' << s.dropped_pkts
         << ' ' << s.busy_ns << ' ' << s.int_pkts << ' ' << s.int_bytes
         << '\n';
    }
  }
  os << "host_tx=" << fabric.stats().host_tx_pkts.load()
     << " host_rx=" << fabric.stats().host_rx_pkts.load()
     << " unwired=" << fabric.stats().unwired_tx_pkts.load() << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// Scenario equivalence: the full Mantis stack (per-switch agents, drivers,
// PCIe models, detectors) under the gray-failure and ECMP scenarios.
// ---------------------------------------------------------------------------

/// The signature of a finished scenario run; `int_fabric`, when non-null,
/// appends its rendered report stream to the event log.
RunSignature sign(sim::EventLoop& loop, net::Fabric& fabric,
                  const std::vector<std::string>& events,
                  int_tel::IntFabric* int_fabric) {
  RunSignature sig;
  sig.events = join(events);
  if (int_fabric != nullptr) {
    std::size_t cursor = 0;
    for (const auto* rep : int_fabric->collector().poll(cursor)) {
      sig.events += rep->render();
      sig.events += '\n';
    }
  }
  sig.metrics = loop.telemetry().metrics().snapshot_json();
  sig.mfr = loop.telemetry().recorder().dump_text(loop.now(), "equivalence");
  sig.stats = link_stats_text(fabric);
  return sig;
}

RunSignature run_gray(const net::GrayScenarioConfig& cfg) {
  net::GrayFabricScenario scenario(cfg);
  const auto res = scenario.run();
  return sign(scenario.loop(), scenario.fabric(), res.events,
              scenario.int_fabric());
}

RunSignature run_gray(int threads, std::uint64_t seed, Duration pacing = 0,
                      int leaves = 2, int spines = 2, bool async_push = false) {
  net::GrayScenarioConfig cfg;
  cfg.leaves = leaves;
  cfg.spines = spines;
  cfg.seed = seed;
  cfg.pacing = pacing;
  cfg.threads = threads;
  cfg.agent.async_push = async_push;
  if (leaves * spines > 4) {
    // Prologues serialize on the virtual clock; more switches need a later
    // fault (the scenario throws if prologues overrun fault_at).
    cfg.fault_at = 300 * kMicrosecond;
    cfg.run_until = 600 * kMicrosecond;
  }
  return run_gray(cfg);
}

TEST(ParallelFabricEquivalence, GraySeedsAndThreadCounts) {
  for (std::uint64_t seed : {1ull, 7ull}) {
    const RunSignature base = run_gray(1, seed);
    for (int threads : {2, 4, 8}) {
      const RunSignature par = run_gray(threads, seed);
      EXPECT_EQ(par.events, base.events)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.metrics, base.metrics)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.mfr, base.mfr) << "seed " << seed << " threads "
                                   << threads;
      EXPECT_EQ(par.stats, base.stats)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ParallelFabricEquivalence, GrayWithPacedAgents) {
  // Pacing turns the agents into periodic sleepers instead of busy loops —
  // a different control/shard interleaving shape than the default.
  const RunSignature base = run_gray(1, 3, 5 * kMicrosecond);
  const RunSignature par = run_gray(4, 3, 5 * kMicrosecond);
  EXPECT_EQ(par.events, base.events);
  EXPECT_EQ(par.metrics, base.metrics);
  EXPECT_EQ(par.mfr, base.mfr);
  EXPECT_EQ(par.stats, base.stats);
}

TEST(ParallelFabricEquivalence, GrayWiderFabric) {
  // 4x2: more shards than the default topology, uneven shard loads.
  const RunSignature base = run_gray(1, 5, 0, /*leaves=*/4, /*spines=*/2);
  const RunSignature par = run_gray(4, 5, 0, /*leaves=*/4, /*spines=*/2);
  EXPECT_EQ(par.events, base.events);
  EXPECT_EQ(par.metrics, base.metrics);
  EXPECT_EQ(par.stats, base.stats);
}

TEST(ParallelFabricEquivalence, GrayWithAsyncPushAgents) {
  // Every agent pushes through the batched async driver runtime: the reroute
  // lands as pipelined prepare/commit/mirror batches whose completions are
  // events on the owning switch's control shard. Determinism must hold at
  // every batch size / pipeline depth the scenario produces.
  for (std::uint64_t seed : {2ull, 8ull}) {
    const RunSignature base =
        run_gray(1, seed, 0, 2, 2, /*async_push=*/true);
    for (int threads : {2, 4}) {
      const RunSignature par =
          run_gray(threads, seed, 0, 2, 2, /*async_push=*/true);
      EXPECT_EQ(par.events, base.events)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.metrics, base.metrics)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.mfr, base.mfr) << "seed " << seed << " threads "
                                   << threads;
      EXPECT_EQ(par.stats, base.stats)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Hot-path profiler equivalence: enabling wall-clock profiling must not
// perturb the virtual execution at any thread count. The profiler reads
// host clocks and allocation counters but never feeds back into virtual
// time, so every signature stays byte-identical to an unprofiled baseline.
// ---------------------------------------------------------------------------

RunSignature run_gray_profiled(int threads, std::uint64_t seed,
                               Duration pacing) {
  net::GrayScenarioConfig cfg;
  cfg.seed = seed;
  cfg.pacing = pacing;
  cfg.threads = threads;
  net::GrayFabricScenario scenario(cfg);
  scenario.loop().telemetry().prof().set_enabled(true);
  const auto res = scenario.run();
  const RunSignature sig =
      sign(scenario.loop(), scenario.fabric(), res.events, nullptr);
#if MANTIS_TELEMETRY_ENABLED
  // The profiler must actually have observed the run it didn't perturb.
  EXPECT_GT(scenario.loop().telemetry().prof().report().events, 0u)
      << "threads " << threads;
#endif
  return sig;
}

TEST(ParallelFabricEquivalence, ProfilingScopesDoNotPerturbExecution) {
  // Pacing 100us gives the harness inter-poll drain windows, so threads=4
  // exercises real engine rounds (barrier stalls, outbox reinsertion) with
  // the profiler's round/shard accounting active.
  const Duration pacing = 100 * kMicrosecond;
  for (std::uint64_t seed : {1ull, 9ull}) {
    const RunSignature base = run_gray(1, seed, pacing);
    for (int threads : {1, 4}) {
      const RunSignature prof = run_gray_profiled(threads, seed, pacing);
      EXPECT_EQ(prof.events, base.events)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(prof.metrics, base.metrics)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(prof.mfr, base.mfr)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(prof.stats, base.stats)
          << "seed " << seed << " threads " << threads;
    }
  }
}

RunSignature run_ecmp(const net::EcmpScenarioConfig& cfg) {
  net::EcmpFabricScenario scenario(cfg);
  const auto res = scenario.run();
  return sign(scenario.loop(), scenario.fabric(), res.events,
              scenario.int_fabric());
}

RunSignature run_ecmp(int threads, std::uint64_t seed) {
  net::EcmpScenarioConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  return run_ecmp(cfg);
}

TEST(ParallelFabricEquivalence, EcmpScenario) {
  const RunSignature base = run_ecmp(1, 1);
  for (int threads : {2, 4}) {
    const RunSignature par = run_ecmp(threads, 1);
    EXPECT_EQ(par.events, base.events) << "threads " << threads;
    EXPECT_EQ(par.metrics, base.metrics) << "threads " << threads;
    EXPECT_EQ(par.stats, base.stats) << "threads " << threads;
  }
}

// ---------------------------------------------------------------------------
// INT-enabled equivalence: the probe mesh + sink exports + tomography
// reroute on top of the parallel engine. The signature additionally pins
// the rendered report stream, so report *ordering* (merged across sink
// shards via ShardLane) must match byte-for-byte, not just the counters.
// ---------------------------------------------------------------------------

RunSignature run_int_gray(const int_tel::IntGrayScenarioConfig& cfg) {
  int_tel::IntGrayFabricScenario scenario(cfg);
  const auto res = scenario.run();
  return sign(scenario.loop(), scenario.fabric(), res.events,
              &scenario.int_fabric());
}

RunSignature run_int_gray(int threads, std::uint64_t seed,
                          double fault_loss = 1.0) {
  int_tel::IntGrayScenarioConfig cfg;
  cfg.seed = seed;
  cfg.threads = threads;
  cfg.fault_loss = fault_loss;
  return run_int_gray(cfg);
}

TEST(ParallelFabricEquivalence, IntGrayScenario) {
  for (std::uint64_t seed : {1ull, 7ull}) {
    const RunSignature base = run_int_gray(1, seed);
    for (int threads : {2, 4}) {
      const RunSignature par = run_int_gray(threads, seed);
      EXPECT_EQ(par.events, base.events)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.metrics, base.metrics)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.mfr, base.mfr) << "seed " << seed << " threads "
                                   << threads;
      EXPECT_EQ(par.stats, base.stats)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ParallelFabricEquivalence, IntGrayPartialLoss) {
  // Partial loss exercises the seeded per-link drop streams under INT
  // stacks of varying length (probes grow in flight).
  const RunSignature base = run_int_gray(1, 2, 0.35);
  const RunSignature par = run_int_gray(4, 2, 0.35);
  EXPECT_EQ(par.events, base.events);
  EXPECT_EQ(par.metrics, base.metrics);
  EXPECT_EQ(par.stats, base.stats);
}

// ---------------------------------------------------------------------------
// Golden pins: the equivalence tests above compare thread counts within one
// build; these pin each scenario's outputs across commits. Each row holds
// FNV-1a 64 digests of the signature surfaces, recorded from a known-good
// build. A refactor that must stay byte-identical keeps every row passing;
// a change that moves outputs on purpose re-records the rows (see
// docs/TESTING.md) and says why.
// ---------------------------------------------------------------------------

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

struct GoldenPin {
  const char* name;
  std::function<RunSignature()> run;
  const char* events;
  const char* metrics;
  const char* mfr;
  const char* stats;
};

TEST(ScenarioGoldenPins, OutputsMatchRecordedDigests) {
  const std::vector<GoldenPin> pins = {
      {"gray default seed 11",
       [] {
         net::GrayScenarioConfig c;
         c.seed = 11;
         return run_gray(c);
       },
       "2694460de683ed48", "d44ac104a7951fd1", "5952a160ed239ad5",
       "8848712695ca3e1c"},
      {"gray 0.9 loss seed 21",
       [] {
         net::GrayScenarioConfig c;
         c.seed = 21;
         c.fault_loss = 0.9;
         return run_gray(c);
       },
       "4dd2b5b6e2824c4c", "318dd6a5531fc5f9", "c16ddd4901ff2488",
       "c15b14cf3c3fd086"},
      {"gray int_enable every 2 seed 7",
       [] {
         net::GrayScenarioConfig c;
         c.seed = 7;
         c.int_enable = true;
         c.int_sample_every = 2;
         return run_gray(c);
       },
       "06d824fb52a931ed", "44f87b0a06bc6c56", "6b7695e6a2ece4f0",
       "88d54546a16792bf"},
      {"gray paced 5us async_push threads 4 seed 3",
       [] {
         net::GrayScenarioConfig c;
         c.seed = 3;
         c.pacing = 5 * kMicrosecond;
         c.agent.async_push = true;
         c.threads = 4;
         return run_gray(c);
       },
       "b791629fd29ad6c1", "98f69eb44b65cc39", "adf81bc13c7a6112",
       "ff60147e808ecb19"},
      {"ecmp default", [] { return run_ecmp(net::EcmpScenarioConfig{}); },
       "57b967ce1da85a37", "432af039a72af291", "18c1584e9031f63d",
       "4a35d885b9f36d32"},
      {"ecmp int_enable every 2",
       [] {
         net::EcmpScenarioConfig c;
         c.int_enable = true;
         c.int_sample_every = 2;
         return run_ecmp(c);
       },
       "1f4a76ffdc094fb2", "53fd0f795f2160fc", "b90b2b812f5bdaa7",
       "517fd639bbbf1cee"},
      {"intgray total loss seed 1",
       [] { return run_int_gray(int_tel::IntGrayScenarioConfig{}); },
       "c65a3e77ac095d06", "ee9c69e71122aae1", "82e6ffb5b442528b",
       "63d4768c367dd224"},
      {"intgray 0.35 loss seed 2",
       [] {
         int_tel::IntGrayScenarioConfig c;
         c.seed = 2;
         c.fault_loss = 0.35;
         return run_int_gray(c);
       },
       "989a69abb0addd82", "03c3498adc9ce451", "eea5a0ee85aff5fa",
       "7a7c86e81644abc2"},
  };
  for (const auto& pin : pins) {
    const RunSignature sig = pin.run();
    const std::string events = fnv1a_hex(sig.events);
    const std::string metrics = fnv1a_hex(sig.metrics);
    const std::string mfr = fnv1a_hex(sig.mfr);
    const std::string stats = fnv1a_hex(sig.stats);
    EXPECT_EQ(events, pin.events) << pin.name << ": events";
    EXPECT_EQ(metrics, pin.metrics) << pin.name << ": metrics";
    EXPECT_EQ(mfr, pin.mfr) << pin.name << ": mfr";
    EXPECT_EQ(stats, pin.stats) << pin.name << ": stats";
    // One paste-ready row per pin whose digests moved.
    if (events != pin.events || metrics != pin.metrics || mfr != pin.mfr ||
        stats != pin.stats) {
      ADD_FAILURE() << pin.name << " now reads: \"" << events << "\", \""
                    << metrics << "\", \"" << mfr << "\", \"" << stats
                    << "\"";
    }
  }
}

// ---------------------------------------------------------------------------
// Raw-fabric equivalence: a ring topology driven directly through the
// engine (no agents), with an active FaultInjector schedule covering every
// fault kind. Exercises link-level scheduling, per-direction RNG streams,
// and fault transitions (control events) interleaving with rounds.
// ---------------------------------------------------------------------------

RunSignature run_ring(int threads, std::uint64_t seed) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());

  net::FabricConfig fc;
  fc.base_seed = seed;
  fc.default_link.loss = 0.02;  // ambient loss: every direction draws RNG
  net::Fabric fabric(loop, artifacts.prog, net::Topology::ring(6, 1), fc);

  const Time horizon = 80 * kMicrosecond;

  // Link-local traffic in both directions of every switch-switch link.
  for (int i = 0; i < fabric.topo().num_switches; ++i) {
    const net::NodeId a = i;
    const net::NodeId b = (i + 1) % fabric.topo().num_switches;
    auto make = [&fabric] {
      auto pkt = fabric.factory().make(64);
      fabric.factory().set(pkt, "ipv4.protocol", 253);
      return pkt;
    };
    fabric.start_periodic(a, b, 500, horizon, make);
    fabric.start_periodic(b, a, 700, horizon, make);
  }

  // One fault of every kind, at staggered times on different links.
  net::FaultInjector inj(fabric);
  net::FaultSpec gray;
  gray.kind = net::FaultSpec::Kind::kGrayLoss;
  gray.link = 0;
  gray.at = 10 * kMicrosecond;
  gray.duration = 30 * kMicrosecond;
  gray.loss = 0.5;
  inj.schedule(gray);

  net::FaultSpec down;
  down.kind = net::FaultSpec::Kind::kDown;
  down.link = 1;
  down.direction = 0;
  down.at = 20 * kMicrosecond;
  down.duration = 20 * kMicrosecond;
  inj.schedule(down);

  net::FaultSpec lat;
  lat.kind = net::FaultSpec::Kind::kLatency;
  lat.link = 2;
  lat.at = 15 * kMicrosecond;
  lat.duration = 40 * kMicrosecond;
  lat.extra_latency = 3 * kMicrosecond;
  inj.schedule(lat);

  net::FaultSpec flap;
  flap.kind = net::FaultSpec::Kind::kFlap;
  flap.link = 3;
  flap.at = 5 * kMicrosecond;
  flap.duration = 50 * kMicrosecond;
  flap.flap_period = 4 * kMicrosecond;
  inj.schedule(flap);

  if (threads > 1) {
    net::ParallelFabricEngine engine(fabric, threads);
    engine.run_until(horizon);
    EXPECT_GT(engine.rounds(), 0u);
  } else {
    loop.run_until(horizon);
  }
  fabric.sample_telemetry();

  RunSignature sig;
  sig.events = join(inj.log());
  sig.metrics = loop.telemetry().metrics().snapshot_json();
  sig.mfr = loop.telemetry().recorder().dump_text(loop.now(), "equivalence");
  sig.stats = link_stats_text(fabric);
  return sig;
}

TEST(ParallelFabricEquivalence, RingWithFaultSchedule) {
  for (std::uint64_t seed : {2ull, 11ull}) {
    const RunSignature base = run_ring(1, seed);
    for (int threads : {2, 4, 8}) {
      const RunSignature par = run_ring(threads, seed);
      EXPECT_EQ(par.events, base.events)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.metrics, base.metrics)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.mfr, base.mfr) << "seed " << seed << " threads "
                                   << threads;
      EXPECT_EQ(par.stats, base.stats)
          << "seed " << seed << " threads " << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Engine mechanics.
// ---------------------------------------------------------------------------

TEST(ParallelFabricEngine, LookaheadIsMinPropagationPlusSerialization) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());
  net::FabricConfig fc;
  fc.default_link.propagation = 500;
  net::LinkModel fast = fc.default_link;
  fast.propagation = 120;
  fc.link_overrides[1] = fast;
  net::Fabric fabric(loop, artifacts.prog, net::Topology::ring(4, 0), fc);
  // min over links of (propagation + 1 ns minimum serialization slot).
  EXPECT_EQ(net::ParallelFabricEngine::compute_lookahead(fabric), 121);
}

TEST(ParallelFabricEngine, ClampsThreadsToShardsAndDegeneratesToSequential) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());
  net::Fabric fabric(loop, artifacts.prog, net::Topology::ring(3, 1), {});
  // 16 requested threads on 3 shards must not spawn 15 workers; and with
  // the queue empty, run_until just advances the clock.
  net::ParallelFabricEngine engine(fabric, 16);
  loop.run();  // drain construction-time events, if any
  engine.run_until(loop.now() + 10);
  SUCCEED();
}

TEST(EventLoopOrder, CanonicalKeyIsSchedulingHistoryNotInsertionOrder) {
  // Same-t events: control-scheduled events run in FIFO (seq) order
  // regardless of dst, because they share src = kControlShard.
  sim::EventLoop loop;
  loop.ensure_tags(4);
  std::vector<int> order;
  loop.schedule_for(2, 10, [&] { order.push_back(2); });
  loop.schedule_for(0, 10, [&] { order.push_back(0); });
  loop.schedule_at(10, [&] { order.push_back(-1); });
  loop.run_until(20);
  EXPECT_EQ(order, (std::vector<int>{2, 0, -1}));
}

TEST(EventLoopOrder, ShardScheduledEventsSortAfterControlAtSameInstant) {
  // An event scheduled *from* shard context carries src = shard >= 0 and
  // must sort after control-scheduled (src = -1) events at the same t.
  sim::EventLoop loop;
  loop.ensure_tags(2);
  std::vector<std::string> order;
  // Shard event at t=5 schedules a follow-up at t=10 (src will be 1).
  loop.schedule_for(1, 5, [&] {
    loop.schedule_for(1, 10, [&] { order.push_back("from-shard"); });
  });
  loop.schedule_at(2, [&] {
    loop.schedule_for(1, 10, [&] { order.push_back("from-control"); });
  });
  loop.run_until(20);
  EXPECT_EQ(order,
            (std::vector<std::string>{"from-control", "from-shard"}));
}

// ---------------------------------------------------------------------------
// Seeded-RNG ownership: every link direction owns an independent,
// deterministically seeded drop process. No generator is shared across
// shards, so parallel execution cannot perturb any stream.
// ---------------------------------------------------------------------------

TEST(RngOwnership, FabricAssignsDistinctPerLinkSeeds) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());
  net::FabricConfig fc;
  fc.base_seed = 40;
  net::Fabric fabric(loop, artifacts.prog, net::Topology::leaf_spine(2, 2, 1),
                     {});
  net::Fabric fabric2(loop, artifacts.prog,
                      net::Topology::leaf_spine(2, 2, 1), fc);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < fabric2.num_links(); ++i) {
    EXPECT_EQ(fabric2.link(i).model().seed, 40 + 2 * i) << "link " << i;
    seeds.push_back(fabric2.link(i).model().seed);
  }
  // Default base seed: still distinct, still base + 2i.
  for (std::size_t i = 0; i < fabric.num_links(); ++i) {
    EXPECT_EQ(fabric.link(i).model().seed,
              fabric.config().base_seed + 2 * i);
  }
}

TEST(RngOwnership, DirectionStreamsAreIndependentAndReplayable) {
  // Drive N lossy transmissions down each direction of a standalone link;
  // the surviving-packet patterns must differ between directions (distinct
  // streams) yet replay byte-identically under the same seed.
  auto survivors = [](std::uint64_t seed) {
    sim::EventLoop loop;
    net::LinkModel model;
    model.loss = 0.4;
    model.seed = seed;
    std::vector<std::vector<Time>> delivered(2);
    net::Link link(
        loop, "l", {0, 0}, {1, 0}, model,
        [&](sim::Packet pkt, net::NodeId node, int) {
          delivered[node == 1 ? 0 : 1].push_back(pkt.origin_time());
        });
    for (int i = 0; i < 64; ++i) {
      loop.schedule_at(i * 1000, [&link, &loop, i] {
        sim::Packet pkt(0, 64);
        pkt.set_origin_time(loop.now());
        link.transmit(0, pkt);
        sim::Packet back(0, 64);
        back.set_origin_time(loop.now());
        link.transmit(1, back);
      });
    }
    loop.run();
    return delivered;
  };

  auto a = survivors(9);
  auto b = survivors(9);
  auto c = survivors(10);
  EXPECT_EQ(a[0], b[0]);  // same seed => same a->b survivors
  EXPECT_EQ(a[1], b[1]);
  EXPECT_NE(a[0], a[1]);  // directions draw from independent streams
  EXPECT_NE(a[0], c[0]);  // different seed => different pattern
}

// ---------------------------------------------------------------------------
// Clos equivalence: a 3-tier Clos driven by the aggregated flow-class
// workload, with structural ECMP routes and a fault schedule. Covers the
// third topology of the seeds x {leaf_spine, ring, clos} x threads matrix,
// plus the multi-switch shard grouping (12 switches, uneven load) and the
// flow-class delivery ring's cross-shard determinism argument.
// ---------------------------------------------------------------------------

RunSignature run_clos(int threads, std::uint64_t seed, int groups = 0) {
  sim::EventLoop loop;
  auto artifacts = compile::compile_source(apps::gray_failure_p4r_source());

  const net::ClosSpec spec{2, 2, 2, 4, 1};
  net::FabricConfig fc;
  fc.base_seed = seed;
  fc.default_link.propagation = 1000;
  fc.default_link.loss = 0.01;  // ambient loss: every direction draws RNG
  fc.switch_cfg.num_ports = 8;
  net::Fabric fabric(loop, artifacts.prog, net::Topology::clos(spec), fc);

  // Structural ECMP routes for every host on every switch. The compiled
  // program's malleable `route` carries the isolation pass's vv column; no
  // agent runs here, so entries and packets stay on version 0.
  for (net::NodeId sw = 0; sw < fabric.num_switches(); ++sw) {
    auto& route = fabric.switch_at(sw).table("route");
    for (int g = 0; g < spec.num_leaves(); ++g) {
      const std::uint32_t addr = spec.host_addr(g, 0);
      const int port = spec.next_hop_port(sw, addr);
      if (port < 0) continue;
      p4::EntrySpec es;
      es.key.push_back(p4::MatchValue{addr, ~std::uint64_t{0}});
      es.key.push_back(p4::MatchValue{0, ~std::uint64_t{0}});
      es.action = "set_egress";
      es.action_args = {static_cast<std::uint64_t>(port)};
      route.add_entry(es);
    }
  }

  const Time horizon = 100 * kMicrosecond;

  // Aggregated flows: every leaf's host talks to the diagonally opposite
  // one, epochs sized to the lookahead contract.
  workload::FlowClassesConfig wc;
  wc.total_flows = 10'000;
  wc.epoch = 10 * kMicrosecond;
  wc.max_samples_per_epoch = 16;
  std::vector<workload::FlowClasses::Endpoint> eps;
  for (int g = 0; g < spec.num_leaves(); ++g) {
    eps.push_back({spec.host_addr(g, 0),
                   spec.host_addr(spec.num_leaves() - 1 - g, 0)});
  }
  workload::FlowClasses flows(fabric, wc, std::move(eps));

  // A gray fault on one leaf uplink mid-run: control events (fault
  // transitions) interleaving with flow-class rounds.
  net::FaultInjector inj(fabric);
  net::FaultSpec gray;
  gray.kind = net::FaultSpec::Kind::kGrayLoss;
  gray.link = 0;  // first leaf-agg link
  gray.at = 30 * kMicrosecond;
  gray.duration = 40 * kMicrosecond;
  gray.loss = 0.5;
  inj.schedule(gray);

  if (threads > 1) {
    net::ParallelFabricEngine::Options opt;
    opt.groups = groups;
    net::ParallelFabricEngine engine(fabric, threads, opt);
    flows.start(horizon, engine.lookahead());
    engine.run_until(horizon);
  } else {
    flows.start(horizon);
    loop.run_until(horizon);
  }
  fabric.sample_telemetry();

  RunSignature sig;
  sig.events = join(inj.log()) + "\nsent=" +
               std::to_string(flows.samples_sent()) +
               " delivered=" + std::to_string(flows.samples_delivered());
  sig.metrics = loop.telemetry().metrics().snapshot_json();
  sig.mfr = loop.telemetry().recorder().dump_text(loop.now(), "equivalence");
  sig.stats = link_stats_text(fabric);
  return sig;
}

TEST(ParallelFabricEquivalence, ClosWithFlowClasses) {
  for (std::uint64_t seed : {3ull, 9ull}) {
    const RunSignature base = run_clos(1, seed);
    for (int threads : {2, 4, 8}) {
      const RunSignature par = run_clos(threads, seed);
      EXPECT_EQ(par.events, base.events)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.metrics, base.metrics)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(par.mfr, base.mfr) << "seed " << seed << " threads "
                                   << threads;
      EXPECT_EQ(par.stats, base.stats)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ParallelFabricEngine, ShardGroupingIsExecutionPlacementOnly) {
  // Grouping decides which worker runs a switch's events, never their
  // canonical keys: any group count — one group owning ALL 12 switches,
  // a prime count that splits pods unevenly, or one switch per group —
  // must match the sequential run byte-for-byte.
  const RunSignature base = run_clos(1, 4);
  for (const int groups : {1, 5, 13}) {
    const RunSignature par = run_clos(2, 4, groups);
    EXPECT_EQ(par.events, base.events) << "groups " << groups;
    EXPECT_EQ(par.metrics, base.metrics) << "groups " << groups;
    EXPECT_EQ(par.mfr, base.mfr) << "groups " << groups;
    EXPECT_EQ(par.stats, base.stats) << "groups " << groups;
  }
}

}  // namespace
}  // namespace mantis
