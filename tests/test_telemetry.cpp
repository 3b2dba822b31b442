// Tests for src/telemetry: metrics (order-free log-linear histograms and
// gauges, recorded directly or in engine-group parts), the shard lanes'
// closure merge, the virtual-time tracer (ring buffer, spans, instants),
// the Chrome trace exporter, and the full-stack integration (a dialogue
// iteration produces the §6 phase spans in causal virtual-time order).
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
  h.record(1'000'000'000);  // overflow
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
    const std::uint64_t v = (i % 4 == 0) ? 40'000 + rng.uniform(5'000)
                                         : 10'000 + rng.uniform(2'000);
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

TEST(Histogram, GridQuantilesStayWithinOnePercentOfNearestRank) {
  // The grid is exact below 128 and has 64 cells per power of two above it.
  // Each quantile is within 1% of the nearest-rank sample it stands for,
  // exact for the extreme ranks and below 128, and inside [min, max].
  Rng rng(13);
  std::vector<std::uint64_t> uniform, bimodal, heavy, constant, small, edges;
  for (int i = 0; i < 20'000; ++i) {
    uniform.push_back(rng.uniform(1'000'000));
    bimodal.push_back(i % 4 == 0 ? 40'000 + rng.uniform(5'000)
                                 : 10'000 + rng.uniform(2'000));
    // Pareto, shape 1.1 from 1000 ns.
    heavy.push_back(static_cast<std::uint64_t>(
        1000.0 / std::pow(1.0 - rng.uniform01(), 1.0 / 1.1)));
    constant.push_back(2700);
    small.push_back(rng.uniform(128));
  }
  for (int k = 6; k <= 40; ++k) {
    const std::uint64_t p = std::uint64_t{1} << k;
    for (const std::uint64_t v : {p - 1, p, p + 1}) edges.push_back(v);
  }
  const std::pair<const char*, const std::vector<std::uint64_t>*> streams[] = {
      {"uniform", &uniform},   {"bimodal", &bimodal},
      {"heavy-tailed", &heavy}, {"constant", &constant},
      {"below 128", &small},   {"power-of-two edges", &edges}};

  for (const auto& [name, samples] : streams) {
    Histogram h;
    for (const std::uint64_t v : *samples) h.record(v);
    std::vector<std::uint64_t> sorted = *samples;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(sorted.size()))));
      const double exact = static_cast<double>(sorted[rank - 1]);
      const double got = h.quantile(q);
      EXPECT_LE(std::abs(got - exact), 0.01 * exact) << name << " q=" << q;
      if (q == 0.0 || q == 1.0 || exact < 128 ||
          sorted.front() == sorted.back()) {
        EXPECT_EQ(got, exact) << name << " q=" << q;
      }
      EXPECT_GE(got, static_cast<double>(sorted.front())) << name;
      EXPECT_LE(got, static_cast<double>(sorted.back())) << name;
    }
  }
  EXPECT_THROW(Histogram().quantile(0.5), PreconditionError);
  Histogram one;
  one.record(5);
  EXPECT_THROW(one.quantile(1.5), PreconditionError);
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
  for (int i = 0; i < 100; ++i) h.record(1000 * i);
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

  telemetry::ShardLane::merge_apply(ptrs);
  ASSERT_EQ(applied.size(), deferred);
  std::vector<Key> sorted = applied;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(applied, sorted);
  for (const auto& lane : lanes) EXPECT_TRUE(lane.empty());

  // Lanes that are all empty apply nothing.
  telemetry::ShardLane::merge_apply(ptrs);
  EXPECT_EQ(applied.size(), deferred);
}

// ---------------------------------------------------------------------------
// Order-free sinks: direct and engine-group parts
// ---------------------------------------------------------------------------

TEST(OrderFreeSinks, HistogramSnapshotIgnoresOrderAndLaneSplit) {
  // One multiset of samples must give one snapshot, whatever the order it
  // is recorded in and however it is split between the direct part and
  // 1-4 engine-group lanes: with the group parts grown between two rounds,
  // and with lanes filled from two threads at once.
  Rng rng(11);
  std::vector<std::uint64_t> samples;
  for (int i = 0; i < 4000; ++i) {
    switch (rng.uniform(3)) {
      case 0: samples.push_back(rng.uniform(128)); break;
      case 1: samples.push_back(1000 + rng.uniform(50'000)); break;
      default: samples.push_back(rng.uniform(std::uint64_t{1} << 40)); break;
    }
  }
  HistogramOptions coarse;
  coarse.first_bucket = 16;
  coarse.growth = 1.5;
  coarse.buckets = 30;
  // Records `v` into both histograms of `reg`, in `lane` if any.
  const auto record = [&](MetricsRegistry& reg, std::uint64_t v,
                          telemetry::ShardLane* lane) {
    telemetry::ShardLane::set_current(lane);
    reg.histogram("h.default").record(v);
    reg.histogram("h.coarse", coarse).record(v);
    telemetry::ShardLane::set_current(nullptr);
  };
  const auto make_lanes = [](int groups) {
    std::vector<telemetry::ShardLane> lanes;
    for (int g = 0; g < groups; ++g) lanes.emplace_back(g, groups);
    return lanes;
  };

  MetricsRegistry direct;
  for (const std::uint64_t v : samples) record(direct, v, nullptr);
  const std::string expected = direct.snapshot_json();
  ASSERT_NE(expected.find("\"h.coarse\""), std::string::npos);

  for (int order = 0; order < 3; ++order) {
    std::vector<std::uint64_t> perm = samples;
    if (order == 0) std::reverse(perm.begin(), perm.end());
    if (order == 1) std::sort(perm.begin(), perm.end());
    if (order == 2) std::shuffle(perm.begin(), perm.end(), rng);
    MetricsRegistry reg;
    for (const std::uint64_t v : perm) record(reg, v, nullptr);
    EXPECT_EQ(reg.snapshot_json(), expected) << "order " << order;
  }

  for (int groups = 1; groups <= 4; ++groups) {
    // The first tenth records directly, the rest is dealt at random.
    MetricsRegistry reg;
    auto lanes = make_lanes(groups);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      record(reg, samples[i],
             i < samples.size() / 10 ? nullptr
                                     : &lanes[rng.uniform(lanes.size())]);
    }
    EXPECT_EQ(reg.snapshot_json(), expected) << groups << " groups";
  }

  {
    // A wider engine on the same registry grows the parts between rounds;
    // a narrower one after it keeps the width.
    MetricsRegistry reg;
    ASSERT_EQ(reg.group_parts_width(2), 2);
    auto two = make_lanes(2);
    const std::size_t third = samples.size() / 3;
    for (std::size_t i = 0; i < third; ++i) {
      record(reg, samples[i], &two[i % 2]);
    }
    ASSERT_EQ(reg.group_parts_width(4), 4);
    auto four = make_lanes(4);
    for (std::size_t i = third; i < 2 * third; ++i) {
      record(reg, samples[i], &four[i % 4]);
    }
    ASSERT_EQ(reg.group_parts_width(3), 4);
    std::vector<telemetry::ShardLane> three;
    for (int g = 0; g < 3; ++g) three.emplace_back(g, 4);
    for (std::size_t i = 2 * third; i < samples.size(); ++i) {
      record(reg, samples[i], &three[i % 3]);
    }
    EXPECT_EQ(reg.snapshot_json(), expected) << "grown";
  }

  {
    // Two threads fill lanes 0-1 and 2-3 at once, as two engine workers
    // do: each writes only its own groups' parts.
    MetricsRegistry reg;
    auto lanes = make_lanes(4);
    const auto fill = [&](std::size_t first) {
      for (std::size_t i = 0; i < samples.size(); ++i) {
        if (i % 4 / 2 == first / 2) record(reg, samples[i], &lanes[i % 4]);
      }
    };
    std::thread a(fill, 0);
    std::thread b(fill, 2);
    a.join();
    b.join();
    EXPECT_EQ(reg.snapshot_json(), expected) << "two threads";
  }
}

TEST(OrderFreeSinks, GaugeReadsTheHighestKeyedSet) {
  // A set inside a round keeps the event's key in its group's part, and a
  // read takes the highest key. Trap: the last write sits in lane 0 and an
  // earlier one in lane 3, so a "last lane wins" read would give 111. A
  // direct set between rounds supersedes every part.
  MetricsRegistry reg;
  telemetry::Gauge& g = reg.gauge("g");
  std::vector<telemetry::ShardLane> lanes;
  for (int i = 0; i < 4; ++i) lanes.emplace_back(i, 4);
  const auto set_in = [&](std::size_t lane, Time t, int src,
                          std::uint64_t seq, double v) {
    telemetry::ShardLane::set_current(&lanes[lane]);
    lanes[lane].begin_event(t, src, seq);
    g.set(v);
    telemetry::ShardLane::set_current(nullptr);
  };

  // Round 1.
  set_in(3, 100, 1, 7, 111.0);
  set_in(0, 101, 0, 3, 222.0);
  set_in(2, 100, 0, 9, 99.0);  // same t as lane 3's set, lower src
  EXPECT_EQ(g.value(), 222.0);
  // A control event between rounds.
  g.set(333.0);
  EXPECT_EQ(g.value(), 333.0);
  // Round 2: lane 1 holds the later set, lane 2 an earlier one.
  set_in(2, 200, 2, 0, 444.0);
  set_in(1, 200, 3, 0, 555.0);
  EXPECT_EQ(g.value(), 555.0);

  // The same sets made directly, in canonical key order.
  MetricsRegistry seq;
  for (const double v : {99.0, 111.0, 222.0, 333.0, 444.0, 555.0}) {
    seq.gauge("g").set(v);
  }
  EXPECT_EQ(reg.snapshot_json(), seq.snapshot_json());
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
