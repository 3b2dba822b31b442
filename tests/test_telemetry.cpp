// Tests for src/telemetry: metrics (histograms with P² streaming quantiles),
// the virtual-time tracer (ring buffer, spans, instants), the Chrome trace
// exporter, and the full-stack integration (a dialogue iteration produces
// the §6 phase spans in causal virtual-time order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "helpers.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/shard_lane.hpp"
#include "telemetry/trace.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mantis {
namespace {

using telemetry::Histogram;
using telemetry::HistogramOptions;
using telemetry::MetricsRegistry;
using telemetry::TraceEvent;
using telemetry::Tracer;
using telemetry::Track;

// Cheap well-formedness: braces/brackets balance outside string literals.
void expect_balanced_json(const std::string& json) {
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

// ---------------------------------------------------------------------------
// P² streaming quantiles
// ---------------------------------------------------------------------------

TEST(P2Quantile, SmallSampleIsExact) {
  P2Quantile q(0.5);
  for (const double v : {5.0, 1.0, 3.0}) q.add(v);
  EXPECT_EQ(q.count(), 3u);
  EXPECT_DOUBLE_EQ(q.value(), 3.0);  // exact median of {1,3,5}
}

TEST(P2Quantile, BootstrapMatchesExactOrderStatistics) {
  // Below 5 samples P² has no markers yet; value() must fall back to the
  // exact interpolated order statistic — pinned here against Samples, the
  // batch implementation benches report from.
  for (const double q : {0.25, 0.5, 0.9, 0.99}) {
    const std::vector<double> stream = {40.0, 10.0, 30.0, 20.0};
    P2Quantile est(q);
    Samples exact;
    for (std::size_t n = 0; n < stream.size(); ++n) {
      est.add(stream[n]);
      exact.add(stream[n]);
      EXPECT_DOUBLE_EQ(est.value(), exact.percentile(q * 100.0))
          << "q=" << q << " n=" << n + 1;
    }
  }
  EXPECT_THROW(P2Quantile(0.5).value(), PreconditionError);
}

TEST(P2Quantile, TracksUniformMedianClosely) {
  Rng rng(42);
  P2Quantile p50(0.5), p90(0.9), p99(0.99);
  std::vector<double> all;
  for (int i = 0; i < 20'000; ++i) {
    const double v = static_cast<double>(rng.uniform(1'000'000));
    p50.add(v);
    p90.add(v);
    p99.add(v);
    all.push_back(v);
  }
  std::sort(all.begin(), all.end());
  auto exact = [&](double q) { return all[static_cast<std::size_t>(q * (all.size() - 1))]; };
  // P² on a uniform distribution stays within ~2% of the exact quantile.
  EXPECT_NEAR(p50.value(), exact(0.5), 0.02 * 1e6);
  EXPECT_NEAR(p90.value(), exact(0.9), 0.02 * 1e6);
  EXPECT_NEAR(p99.value(), exact(0.99), 0.02 * 1e6);
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

TEST(Histogram, BucketsCountGeometrically) {
  HistogramOptions opts;
  opts.first_bucket = 10;  // bounds: 10, 20, 40, 80
  opts.buckets = 4;
  Histogram h(opts);
  h.record(5);    // <= 10
  h.record(10);   // <= 10 (bounds are inclusive upper)
  h.record(15);   // <= 20
  h.record(70);   // <= 80
  h.record(1e9);  // overflow
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 0u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.bucket_count(4), 1u);  // overflow slot
  EXPECT_DOUBLE_EQ(h.bucket_upper_bound(3), 80.0);
  EXPECT_DOUBLE_EQ(h.stats().min(), 5.0);
  EXPECT_DOUBLE_EQ(h.stats().max(), 1e9);
}

TEST(Histogram, StreamingQuantilesMatchRawWithinTolerance) {
  HistogramOptions streaming;
  HistogramOptions raw_opts;
  raw_opts.keep_raw = true;
  Histogram stream(streaming), raw(raw_opts);
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    // Bimodal: the dialogue-latency shape (fast clean iterations + slow
    // update-heavy ones).
    const double v = (i % 4 == 0) ? 40'000.0 + static_cast<double>(rng.uniform(5'000))
                                  : 10'000.0 + static_cast<double>(rng.uniform(2'000));
    stream.record(v);
    raw.record(v);
  }
  EXPECT_NEAR(stream.quantile(0.5), raw.quantile(0.5), 0.05 * raw.quantile(0.5));
  EXPECT_NEAR(stream.quantile(0.99), raw.quantile(0.99),
              0.05 * raw.quantile(0.99));
}

TEST(Histogram, KeepRawGivesExactPercentilesAndView) {
  HistogramOptions opts;
  opts.keep_raw = true;
  Histogram h(opts);
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_EQ(h.raw().count(), 100u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), h.raw().median());
  EXPECT_THROW(Histogram().raw(), PreconditionError);
}

TEST(MetricsRegistry, GetOrCreateAndKindConflicts) {
  MetricsRegistry reg;
  auto& c = reg.counter("x.ops");
  c.add(3);
  EXPECT_EQ(&reg.counter("x.ops"), &c);  // stable pointer
  EXPECT_EQ(reg.counter("x.ops").value(), 3u);
  EXPECT_THROW(reg.gauge("x.ops"), PreconditionError);
  EXPECT_THROW(reg.histogram("x.ops"), PreconditionError);
  EXPECT_EQ(reg.find_counter("x.ops")->value(), 3u);
  EXPECT_EQ(reg.find_gauge("x.ops"), nullptr);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
}

TEST(MetricsRegistry, SnapshotJsonIsWellFormed) {
  MetricsRegistry reg;
  reg.counter("a.count").add(7);
  reg.gauge("b.depth").set(3.25);
  auto& h = reg.histogram("c.latency_ns");
  for (int i = 0; i < 100; ++i) h.record(1000.0 * i);
  const auto json = reg.snapshot_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  telemetry::ReportParams params;
  params.set("trials", std::int64_t{16});
  params.set("label", "a \"quoted\" name");
  const auto report = telemetry::report_json("unit_test", params, reg);
  expect_balanced_json(report);
  EXPECT_NE(report.find("\"bench\": \"unit_test\""), std::string::npos);
  EXPECT_NE(report.find("\"trials\": 16"), std::string::npos);
  EXPECT_NE(report.find("a \\\"quoted\\\" name"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ShardLane barrier merge
// ---------------------------------------------------------------------------

TEST(ShardLane, MergeOfInterleavedLanesAppliesInSortedOrder) {
  // Events in canonical (t, src, seq) order — same-t ties across srcs,
  // control (-1) included — are dealt at random to three lanes, each event
  // emitting 1-3 ops; a fourth lane stays empty. Every lane is then in
  // canonical order, as a shard group's lane is, and the lanes interleave.
  struct Key {
    Time t;
    int src;
    std::uint64_t seq;
    std::uint32_t emit;
    auto operator<=>(const Key&) const = default;
  };
  Rng rng(7);
  std::vector<telemetry::ShardLane> lanes(4);
  std::vector<std::uint64_t> seq_by_src(4, 0);
  std::vector<Key> applied;
  std::size_t deferred = 0;
  for (Time t = 0; t < 400; t += 1 + static_cast<Time>(rng.uniform(3))) {
    for (int src = -1; src < 3; ++src) {
      if (rng.chance(0.3)) continue;
      const std::uint64_t seq =
          seq_by_src[static_cast<std::size_t>(src + 1)]++;
      auto& lane = lanes[rng.uniform(3)];
      lane.begin_event(t, src, seq);
      const auto ops = static_cast<std::uint32_t>(1 + rng.uniform(3));
      for (std::uint32_t e = 0; e < ops; ++e) {
        lane.defer(
            [&applied, k = Key{t, src, seq, e}] { applied.push_back(k); });
        ++deferred;
      }
    }
  }
  std::vector<telemetry::ShardLane*> ptrs;
  for (auto& lane : lanes) ptrs.push_back(&lane);
  ASSERT_GT(lanes[0].ops().size(), 0u);
  ASSERT_GT(lanes[1].ops().size(), 0u);

  telemetry::LaneReplay replay(ptrs);
  replay.plan();
  replay.run();
  ASSERT_EQ(applied.size(), deferred);
  std::vector<Key> sorted = applied;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(applied, sorted);
  for (const auto& lane : lanes) EXPECT_TRUE(lane.empty());

  // Lanes that are all empty apply nothing.
  replay.plan();
  replay.run();
  EXPECT_EQ(applied.size(), deferred);
}

TEST(ShardLane, PerSinkReplayMatchesDirectRecording) {
  // One event stream in canonical order — same-t ties across srcs, control
  // (-1) included, 1-3 ops per event, some hitting one sink twice — goes to
  // two histograms with different options, two gauges and a closure sink.
  // A registry that records it directly is the reference. Dealt to three
  // lanes plus an empty one, it must replay to the same snapshot and the
  // same closure order whatever order the barrier's items run in.
  struct Op {
    int sink;  // 0, 1: histograms; 2, 3: gauges; 4: closure
    double value;
  };
  struct Event {
    Time t;
    int src;
    std::uint64_t seq;
    std::size_t lane;
    std::vector<Op> ops;
  };
  Rng rng(11);
  std::vector<Event> events;
  std::vector<std::uint64_t> seq_by_src(4, 0);
  const std::size_t dealt[] = {0, 2, 3};  // lane 1 stays empty
  Time t = 0;
  for (; t < 600; t += 1 + static_cast<Time>(rng.uniform(3))) {
    for (int src = -1; src < 3; ++src) {
      if (rng.chance(0.3)) continue;
      Event ev{t, src, seq_by_src[static_cast<std::size_t>(src + 1)]++,
               dealt[rng.uniform(3)], {}};
      const auto n = 1 + rng.uniform(3);
      for (std::uint64_t e = 0; e < n; ++e) {
        const int sink = e > 0 && rng.chance(0.3)
                             ? ev.ops.back().sink
                             : static_cast<int>(rng.uniform(5));
        ev.ops.push_back({sink, static_cast<double>(rng.uniform(5000)) +
                                    rng.uniform01()});
      }
      events.push_back(std::move(ev));
    }
  }
  // Gauge trap: gauge 2's last write sits in lane 0, listed before lane 3,
  // which holds an earlier write. A "last lane wins" replay keeps 111.
  events.push_back({t, 1, seq_by_src[2]++, 3, {{2, 111.0}}});
  events.push_back({t + 1, 0, seq_by_src[1]++, 0, {{2, 222.0}}});

  HistogramOptions coarse;
  coarse.first_bucket = 16;
  coarse.growth = 1.5;
  coarse.buckets = 30;
  coarse.quantiles = {0.25, 0.75, 0.95};
  struct Sinks {
    MetricsRegistry reg;
    Histogram* h[2];
    telemetry::Gauge* g[2];
    std::vector<std::pair<std::uint64_t, double>> closure;
  };
  const auto make_sinks = [&coarse](Sinks& s) {
    s.h[0] = &s.reg.histogram("h.default");
    s.h[1] = &s.reg.histogram("h.coarse", coarse);
    s.g[0] = &s.reg.gauge("g.a");
    s.g[1] = &s.reg.gauge("g.b");
  };
  const auto record = [](Sinks& s, const Event& ev, const Op& op) {
    if (op.sink < 2) {
      s.h[op.sink]->record(op.value);
    } else if (op.sink < 4) {
      s.g[op.sink - 2]->set(op.value);
    } else if (telemetry::ShardLane* lane = telemetry::ShardLane::current()) {
      lane->defer([&s, seq = ev.seq, v = op.value] {
        s.closure.emplace_back(seq, v);
      });
    } else {
      s.closure.emplace_back(ev.seq, op.value);
    }
  };

  Sinks direct;
  make_sinks(direct);
  for (const auto& ev : events) {
    for (const auto& op : ev.ops) record(direct, ev, op);
  }
  ASSERT_EQ(direct.g[0]->value(), 222.0);
  Sinks untouched;
  make_sinks(untouched);

  enum class Order { kClaim, kReverse, kTwoThreads };
  for (const Order order : {Order::kClaim, Order::kReverse, Order::kTwoThreads}) {
    SCOPED_TRACE(static_cast<int>(order));
    Sinks laned;
    make_sinks(laned);
    std::vector<telemetry::ShardLane> lanes(4);
    for (const auto& ev : events) {
      telemetry::ShardLane& lane = lanes[ev.lane];
      telemetry::ShardLane::set_current(&lane);
      lane.begin_event(ev.t, ev.src, ev.seq);
      for (const auto& op : ev.ops) record(laned, ev, op);
      telemetry::ShardLane::set_current(nullptr);
    }
    // Everything was deferred: nothing reached the sinks yet.
    ASSERT_TRUE(lanes[1].empty());
    ASSERT_EQ(laned.reg.snapshot_json(), untouched.reg.snapshot_json());
    ASSERT_TRUE(laned.closure.empty());

    std::vector<telemetry::ShardLane*> ptrs;
    for (auto& lane : lanes) ptrs.push_back(&lane);
    telemetry::LaneReplay replay(ptrs);
    replay.plan();
    ASSERT_EQ(replay.size(), 5u);  // four typed sinks and the closure stream
    switch (order) {
      case Order::kClaim:
        for (std::size_t i = 0; i < replay.size(); ++i) replay.replay(i);
        break;
      case Order::kReverse:
        for (std::size_t i = replay.size(); i-- > 0;) replay.replay(i);
        break;
      case Order::kTwoThreads: {
        std::thread a([&replay] { replay.run(); });
        std::thread b([&replay] { replay.run(); });
        a.join();
        b.join();
        break;
      }
    }
    EXPECT_EQ(laned.reg.snapshot_json(), direct.reg.snapshot_json());
    EXPECT_EQ(laned.closure, direct.closure);
    EXPECT_EQ(laned.g[0]->value(), 222.0);
    for (const auto& lane : lanes) EXPECT_TRUE(lane.empty());
  }
}

// ---------------------------------------------------------------------------
// Tracer ring buffer
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
  Tracer t;
  t.complete("x", "c", Track::kAgent, 0, 10);
  t.instant("y", "c", Track::kAgent, 5);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(Tracer, RingBufferWrapsOldestFirst) {
  Tracer t(8);
  t.set_enabled(true);
  for (int i = 0; i < 20; ++i) {
    t.complete("ev", "c", Track::kAgent, i * 100, i * 100 + 50, "i", i);
  }
  EXPECT_EQ(t.size(), 8u);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 12u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 8u);
  // Oldest retained is #12; order is strictly oldest -> newest.
  for (std::size_t k = 0; k < evs.size(); ++k) {
    EXPECT_EQ(evs[k].arg, static_cast<std::int64_t>(12 + k));
    EXPECT_EQ(evs[k].vt_begin, static_cast<Time>((12 + k) * 100));
    EXPECT_EQ(evs[k].vt_dur, 50);
  }
}

TEST(Tracer, ScopedSpanUsesInstalledClock) {
  Tracer t;
  Time now = 1000;
  t.set_clock([&now] { return now; });
  t.set_enabled(true);
  {
    telemetry::ScopedSpan span(t, "work", "c", Track::kHost);
    now = 1750;
  }
  ASSERT_EQ(t.size(), 1u);
  const auto evs = t.events();
  EXPECT_EQ(evs[0].vt_begin, 1000);
  EXPECT_EQ(evs[0].vt_dur, 750);
  EXPECT_EQ(evs[0].phase, TraceEvent::Phase::kComplete);
}

TEST(Tracer, FlowEventsSurviveRingWraparound) {
  Tracer t(4);
  t.set_enabled(true);
  // 3 complete flows + 1 dangling start = 10 events through a 4-slot ring.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    t.flow(TraceEvent::Phase::kFlowStart, "rx", "prov", Track::kAgent,
           id * 100, id);
    t.flow(TraceEvent::Phase::kFlowStep, "rx", "prov", Track::kDriverChannel,
           id * 100 + 10, id);
    t.flow(TraceEvent::Phase::kFlowEnd, "rx", "prov", Track::kSwitch,
           id * 100 + 20, id);
  }
  t.flow(TraceEvent::Phase::kFlowStart, "rx", "prov", Track::kAgent, 999, 4);
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.size(), 4u);
  const auto evs = t.events();
  // Oldest retained is flow 3's start; order stays oldest -> newest.
  EXPECT_EQ(evs.front().flow_id, 3u);
  EXPECT_EQ(evs.front().phase, TraceEvent::Phase::kFlowStart);
  EXPECT_EQ(evs.back().flow_id, 4u);
  for (const auto& e : evs) EXPECT_TRUE(e.is_flow());
}

TEST(Tracer, ClearAndCapacityReset) {
  Tracer t(4);
  t.set_enabled(true);
  for (int i = 0; i < 6; ++i) t.instant("i", "c", Track::kSwitch, i);
  EXPECT_EQ(t.size(), 4u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.recorded(), 0u);
  t.set_capacity(2);
  t.set_enabled(true);
  for (int i = 0; i < 3; ++i) t.instant("i", "c", Track::kSwitch, i);
  EXPECT_EQ(t.size(), 2u);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST(ChromeTrace, EmitsWellFormedJsonWithTrackNames) {
  Tracer t;
  t.set_enabled(true);
  t.complete("span \"a\"", "cat", Track::kAgent, 1000, 3500, "n", 4);
  t.instant("mark", "cat", Track::kTrafficManager, 2000);
  const auto json = telemetry::chrome_trace_json(t);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"agent\""), std::string::npos);
  EXPECT_NE(json.find("\"traffic_manager\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // ts/dur are microseconds: 1000ns begin -> 1.000us, 2500ns dur -> 2.500us.
  EXPECT_NE(json.find("\"ts\": 1.000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 2.500"), std::string::npos);
  EXPECT_NE(json.find("span \\\"a\\\""), std::string::npos);
}

TEST(ChromeTrace, FlowEventsExportWithSharedIdAndBindingPoint) {
  Tracer t;
  t.set_enabled(true);
  t.flow(TraceEvent::Phase::kFlowStart, "rx", "prov", Track::kAgent, 1000, 42);
  t.flow(TraceEvent::Phase::kFlowStep, "rx", "prov", Track::kDriverChannel,
         2000, 42);
  t.flow(TraceEvent::Phase::kFlowEnd, "rx", "prov", Track::kSwitch, 3000, 42);
  const auto json = telemetry::chrome_trace_json(t);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 42"), std::string::npos);
  // The flow end binds to the enclosing slice ("bp":"e") per the trace spec.
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
}

TEST(ChromeTrace, DanglingFlowStartStaysWellFormed) {
  // A flow whose end was overwritten by ring wraparound (or never recorded —
  // e.g. no packet matched before the dump) must still export as valid JSON.
  Tracer t;
  t.set_enabled(true);
  t.flow(TraceEvent::Phase::kFlowStart, "rx", "prov", Track::kAgent, 100, 7);
  t.flow(TraceEvent::Phase::kFlowStep, "rx", "prov", Track::kDriverChannel,
         200, 7);
  const auto json = telemetry::chrome_trace_json(t);
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_EQ(json.find("\"ph\": \"f\""), std::string::npos);

  // The converse — an end whose start fell out of the ring — as well.
  Tracer t2;
  t2.set_enabled(true);
  t2.flow(TraceEvent::Phase::kFlowEnd, "rx", "prov", Track::kSwitch, 300, 8);
  expect_balanced_json(telemetry::chrome_trace_json(t2));
}

// ---------------------------------------------------------------------------
// Full-stack integration
// ---------------------------------------------------------------------------

#if MANTIS_TELEMETRY_ENABLED
TEST(TelemetryIntegration, DialogueIterationEmitsPhaseSpansInCausalOrder) {
  test::Stack stack(test::figure1_style_source());
  stack.loop.telemetry().tracer().set_enabled(true);
  stack.agent->run_prologue();
  stack.loop.telemetry().tracer().clear();  // isolate one iteration
  stack.agent->dialogue_iteration();

  const auto evs = stack.loop.telemetry().tracer().events();
  const std::vector<std::string> phases = {
      "dialogue.mv_flip", "dialogue.measure", "dialogue.react",
      "dialogue.vv_commit", "dialogue.shadow_fill"};
  Time prev_end = -1;
  for (const auto& name : phases) {
    const auto it = std::find_if(evs.begin(), evs.end(), [&](const TraceEvent& e) {
      return name == e.name;
    });
    ASSERT_NE(it, evs.end()) << "missing span " << name;
    EXPECT_EQ(it->track, Track::kAgent);
    EXPECT_GE(it->vt_dur, 0) << name;
    // Causal order: each phase begins no earlier than the previous ended.
    // (prepare sits between react and vv_commit; the five named phases are
    // still monotone.)
    EXPECT_GE(it->vt_begin, prev_end) << name;
    prev_end = it->vt_begin + it->vt_dur;
  }

  // The enclosing iteration span covers all five phases.
  const auto iter = std::find_if(evs.begin(), evs.end(), [](const TraceEvent& e) {
    return std::string("dialogue.iteration") == e.name;
  });
  ASSERT_NE(iter, evs.end());
  EXPECT_GE(prev_end, iter->vt_begin);
  EXPECT_LE(prev_end, iter->vt_begin + iter->vt_dur);

  // Driver-channel occupancy spans ride along on their own track.
  EXPECT_TRUE(std::any_of(evs.begin(), evs.end(), [](const TraceEvent& e) {
    return e.track == Track::kDriverChannel;
  }));
}
#endif  // MANTIS_TELEMETRY_ENABLED

TEST(TelemetryIntegration, AgentAccessorsAreViewsOverRegistry) {
  test::Stack stack(test::figure1_style_source());
  stack.agent->run_prologue();
  stack.agent->run_dialogue(5);

  const auto& m = stack.loop.telemetry().metrics();
  const auto* iters = m.find_counter("agent.dialogue.iterations");
  const auto* busy = m.find_counter("agent.dialogue.busy_ns");
  const auto* hist = m.find_histogram("agent.dialogue.iteration_ns");
  ASSERT_NE(iters, nullptr);
  ASSERT_NE(busy, nullptr);
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(stack.agent->iterations(), iters->value());
  EXPECT_EQ(stack.agent->iterations(), 5u);
  EXPECT_EQ(static_cast<std::uint64_t>(stack.agent->busy_time()), busy->value());
  EXPECT_EQ(stack.agent->iteration_latencies().count(), hist->raw().count());
  EXPECT_EQ(hist->count(), 5u);

  // Phase histograms account for every iteration too.
  for (const char* name :
       {"agent.phase.mv_flip_ns", "agent.phase.measure_ns",
        "agent.phase.react_ns", "agent.phase.update_ns"}) {
    const auto* ph = m.find_histogram(name);
    ASSERT_NE(ph, nullptr) << name;
    EXPECT_EQ(ph->count(), 5u) << name;
  }

  // Driver/switch instrumentation registered under the same registry.
  EXPECT_NE(m.find_counter("driver.channel.ops"), nullptr);
  EXPECT_NE(m.find_histogram("driver.channel.occupancy_ns"), nullptr);
}

TEST(TelemetryIntegration, MetricsSnapshotExportsDialogueLatency) {
  test::Stack stack(test::figure1_style_source());
  stack.agent->run_prologue();
  stack.agent->run_dialogue(3);
  const auto json = stack.loop.telemetry().metrics().snapshot_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"agent.dialogue.iteration_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"driver.channel.occupancy_ns\""), std::string::npos);
}

}  // namespace
}  // namespace mantis
