// Unit tests for the hot-path profiler (telemetry/prof): site registry,
// per-event cost attribution, allocation accounting (including the pinned
// per-packet-event allocation count), heap-operation counters, and the
// report/JSON/folded output shapes.
//
// Everything observable here is wall-clock-side only; the companion
// equivalence suite (test_parallel_fabric.cpp) proves the virtual execution
// is byte-identical with profiling on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "sim/event_loop.hpp"
#include "telemetry/inspect.hpp"
#include "telemetry/prof/alloc_hook.hpp"
#include "telemetry/prof/prof.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/pool.hpp"

namespace mantis::telemetry::prof {
namespace {

TEST(ProfSiteRegistry, DeduplicatesByNameAndKind) {
  const SiteId a = register_site("test.dedup_site", EventKind::kOther);
  const SiteId b = register_site("test.dedup_site", EventKind::kOther);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0);  // 0 is the reserved "unknown" site
  EXPECT_STREQ(site_name(a), "test.dedup_site");
  EXPECT_EQ(site_kind(a), EventKind::kOther);
}

#if MANTIS_TELEMETRY_ENABLED

TEST(ProfProfiler, DisabledProfilerCountsNothing) {
  sim::EventLoop loop;
  auto& prof = loop.telemetry().prof();
  ASSERT_FALSE(prof.enabled());  // off by default
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  const ProfileReport rep = prof.report();
  EXPECT_EQ(rep.events, 0u);
  EXPECT_EQ(rep.heap.pushes, 0u);
  EXPECT_EQ(rep.heap.pops, 0u);
  EXPECT_TRUE(rep.compiled);
  EXPECT_FALSE(rep.enabled);
}

TEST(ProfProfiler, CountsEventsAndHeapOps) {
  sim::EventLoop loop;
  auto& prof = loop.telemetry().prof();
  prof.set_enabled(true);
  constexpr int kEvents = 5;
  int fired = 0;
  for (int i = 0; i < kEvents; ++i) {
    loop.schedule_at(10 * (i + 1), [&] { ++fired; });
  }
  loop.run();
  prof.set_enabled(false);

  EXPECT_EQ(fired, kEvents);
  const ProfileReport rep = prof.report();
  EXPECT_EQ(rep.events, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(rep.heap.pushes, static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(rep.heap.pops, static_cast<std::uint64_t>(kEvents));
  EXPECT_GE(rep.heap.peak_depth, 1u);
  EXPECT_LE(rep.heap.peak_depth, static_cast<std::uint64_t>(kEvents));
  // Everything dispatched lands in some kind bucket; with no ProfScopes in
  // the callbacks it is all the "event.dispatch" remainder (kOther).
  EXPECT_EQ(rep.kinds[static_cast<std::size_t>(EventKind::kOther)].count,
            static_cast<std::uint64_t>(kEvents));
}

TEST(ProfProfiler, ScopesAttributeSelfTimeToSites) {
  sim::EventLoop loop;
  auto& prof = loop.telemetry().prof();
  prof.set_enabled(true);
  loop.schedule_at(10, [&] {
    MANTIS_PROF_SCOPE(&prof, kPipelineExecute, "test.scope_outer");
    volatile std::uint64_t sink = 0;
    for (int i = 0; i < 1000; ++i) sink = sink + static_cast<std::uint64_t>(i);
  });
  loop.run();
  prof.set_enabled(false);

  const ProfileReport rep = prof.report();
  bool found = false;
  for (const auto& s : rep.sites) {
    if (s.name == "test.scope_outer") {
      found = true;
      EXPECT_EQ(s.count, 1u);
      EXPECT_EQ(s.kind, EventKind::kPipelineExecute);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(
      rep.kinds[static_cast<std::size_t>(EventKind::kPipelineExecute)].count,
      1u);
  // Folded stacks nest the scope under the dispatch root.
  const std::string folded = rep.to_folded();
  EXPECT_NE(folded.find("event.dispatch;test.scope_outer"), std::string::npos)
      << folded;
}

TEST(ProfAllocHook, CountsExactAllocationsPerEvent) {
  sim::EventLoop loop;
  auto& prof = loop.telemetry().prof();
  prof.set_enabled(true);
  constexpr int kEvents = 10;
  constexpr int kAllocsPerEvent = 5;
  std::vector<std::unique_ptr<int>> keep;
  keep.reserve(kEvents * kAllocsPerEvent);  // no reallocation inside events
  for (int i = 0; i < kEvents; ++i) {
    loop.schedule_at(10 * (i + 1), [&] {
      for (int a = 0; a < kAllocsPerEvent; ++a) {
        keep.push_back(std::make_unique<int>(a));
      }
    });
  }
  loop.run();
  prof.set_enabled(false);

  const ProfileReport rep = prof.report();
  EXPECT_EQ(rep.events, static_cast<std::uint64_t>(kEvents));
  // The operator-new hook sees exactly the make_unique calls: the callbacks
  // perform no other heap activity (the keep vector was pre-reserved).
  EXPECT_EQ(rep.event_allocs,
            static_cast<std::uint64_t>(kEvents * kAllocsPerEvent));
  EXPECT_DOUBLE_EQ(rep.allocs_per_event(), 0.0 + kAllocsPerEvent);
  EXPECT_GT(total_allocs(), 0u);
  EXPECT_GT(total_frees(), 0u);
}

TEST(ProfAllocHook, SourceIsPluggable) {
  static std::uint64_t fake_count;
  fake_count = 1000;
  set_alloc_source([] { return fake_count; });
  EXPECT_EQ(alloc_count(), 1000u);
  fake_count = 1234;
  EXPECT_EQ(alloc_count(), 1234u);
  set_alloc_source(nullptr);  // restore the operator-new counter
  const std::uint64_t before = alloc_count();
  auto p = std::make_unique<int>(7);
  EXPECT_GE(alloc_count(), before + 1);
}

// The pinned per-packet-event allocation count: a fixed packet workload
// through the full switch pipeline must allocate identically run to run
// (the determinism contract extends to heap behavior at threads=1), and
// stay within a generous budget so allocation regressions on the hot path
// surface here before they show up as throughput loss.
struct PacketRunProfile {
  std::uint64_t events = 0;
  std::uint64_t event_allocs = 0;
};

PacketRunProfile profile_packet_run() {
  // Pool reuse makes the operator-new count depend on freelist warmth from
  // earlier tests in this process; start each run from a cold pool so the
  // count is a pure function of the workload.
  util::pool::purge_thread_cache();
  test::Stack stack(test::figure1_style_source());
  auto& prof = stack.loop.telemetry().prof();
  prof.set_enabled(true);
  constexpr int kPackets = 32;
  for (int i = 0; i < kPackets; ++i) {
    stack.loop.schedule_at(1000 * (i + 1), [&stack, i] {
      auto pkt = stack.sw->factory().make(100);
      stack.sw->factory().set(pkt, "hdr.foo", static_cast<std::uint32_t>(i));
      stack.sw->inject(std::move(pkt), 0);
    });
  }
  stack.loop.run();
  prof.set_enabled(false);
  const ProfileReport rep = prof.report();
  PacketRunProfile r;
  r.events = rep.events;
  r.event_allocs = rep.event_allocs;
  return r;
}

TEST(ProfAllocHook, PacketEventAllocationCountIsPinned) {
  const PacketRunProfile a = profile_packet_run();
  const PacketRunProfile b = profile_packet_run();
  EXPECT_GT(a.events, 0u);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.event_allocs, b.event_allocs) << "allocation count must be a "
                                               "deterministic function of the "
                                               "workload at threads=1";
  // Generous ceiling: a packet event through the interpreted pipeline stays
  // well under 4096 allocations. A breach means a per-packet path started
  // allocating per field/table visit — fix that, don't raise the bound.
  EXPECT_LT(a.event_allocs / a.events, 4096u);
  if (util::pool::pooling_active()) {
    // With the freelist pools live, the steady-state packet hot path is
    // allocation-free: the operator-new hook only sees what the pools could
    // not absorb (cold-pool warmup plus non-pooled odds and ends), which
    // amortizes to under 2 per event even on a 32-packet run. A breach
    // means a hot-path allocation bypassed the pools — route it through
    // util::pool or SmallFn, don't raise the bound.
    EXPECT_LT(static_cast<double>(a.event_allocs) /
                  static_cast<double>(a.events),
              2.0);
  }
}

TEST(ProfReport, JsonAndRendererRoundTrip) {
  sim::EventLoop loop;
  auto& prof = loop.telemetry().prof();
  prof.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    loop.schedule_at(10 * (i + 1), [&] {
      MANTIS_PROF_SCOPE(&prof, kTmDequeue, "test.json_site");
    });
  }
  loop.run();
  prof.sample(loop.now());
  prof.set_enabled(false);

  const std::string json = prof.report_json();
  EXPECT_NE(json.find("\"schema\": \"mantis-prof/1\""), std::string::npos);
  EXPECT_NE(json.find("\"tm_dequeue\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_site\""), std::string::npos);

  // The p4r_inspect renderer parses what the writer emits.
  const std::string text = prof_report_text(json);
  EXPECT_NE(text.find("hot-path profile"), std::string::npos);
  EXPECT_NE(text.find("test.json_site"), std::string::npos);
  EXPECT_NE(text.find("tm_dequeue"), std::string::npos);

  // Malformed input and non-prof reports fail loudly, not silently.
  EXPECT_THROW(prof_report_text("{\"schema\": \"mantis-prof/1\""), UserError);
  EXPECT_THROW(prof_report_text("{\"bench\": \"x\"}"), UserError);
}

TEST(ProfProfiler, ShardAccounting) {
  sim::EventLoop loop;
  auto& prof = loop.telemetry().prof();
  prof.ensure_shards(2);
  prof.set_enabled(true);
  prof.count_event(0, 100, 1);
  prof.count_event(0, 100, 0);
  prof.count_event(1, 50, 0);
  prof.note_round(/*max_events=*/2, /*total_events=*/3, /*idle=*/0,
                  /*stall_ns=*/10);
  prof.note_round(/*max_events=*/2, /*total_events=*/2, /*idle=*/1,
                  /*stall_ns=*/5);
  prof.set_enabled(false);

  const ProfileReport rep = prof.report();
  ASSERT_EQ(rep.shards.size(), 2u);
  EXPECT_EQ(rep.shards[0].events, 2u);
  EXPECT_EQ(rep.shards[1].events, 1u);
  EXPECT_EQ(rep.rounds.rounds, 2u);
  EXPECT_EQ(rep.rounds.barrier_stall_ns, 15u);
  EXPECT_EQ(rep.rounds.idle_shard_rounds, 1u);
  // mean max 2, mean per-shard (3+2)/2/2 = 1.25 -> imbalance 1.6
  EXPECT_NEAR(rep.rounds.imbalance(), 1.6, 1e-9);
}

#else  // !MANTIS_TELEMETRY_ENABLED

TEST(ProfProfiler, CompiledOutIsInert) {
  sim::EventLoop loop;
  auto& prof = loop.telemetry().prof();
  prof.set_enabled(true);
  loop.schedule_at(10, [] {});
  loop.run();
  const ProfileReport rep = prof.report();
  EXPECT_FALSE(rep.compiled);
  EXPECT_EQ(rep.events, 0u);
  EXPECT_EQ(alloc_count(), 0u);
}

#endif  // MANTIS_TELEMETRY_ENABLED

}  // namespace
}  // namespace mantis::telemetry::prof
