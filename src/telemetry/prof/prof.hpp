// Hot-path wall-clock profiler: per-event-kind cost attribution, allocation
// accounting, shard load telemetry, and event-queue heap counters.
//
// ROADMAP item 1 ("profile, then refactor" the event-loop hot path) needs
// evidence, not guesses: which event kinds burn host cycles, how many heap
// allocations each packet event costs, whether the parallel engine's shards
// are balanced or barrier-bound. This subsystem answers those questions
// without perturbing the simulation: it reads wall clocks and counters but
// never feeds anything back into virtual-time ordering, so the sequential /
// parallel equivalence contract holds byte-for-byte with profiling on
// (tests/test_parallel_fabric.cpp pins this).
//
// Design:
//  * Sites — static instrumentation points registered once per call site
//    via MANTIS_PROF_SCOPE(prof, kKind, "name"). Each site maps to an
//    EventKind (packet transit, pipeline execute, TM dequeue, ...).
//  * Scopes — RAII frames on a thread-local stack. A scope attributes its
//    *self* time (elapsed minus child scopes) and self allocations to its
//    site, so nested instrumentation never double-counts.
//  * EventScope — wraps one event-callback dispatch (EventLoop::step or a
//    parallel shard drain). Counts the event, charges inclusive time and
//    allocations to the shard cell, and owns the root frame so any time a
//    callback spends outside a named scope lands in the "event.dispatch"
//    remainder bucket instead of vanishing.
//  * Folded stacks — scope paths pack into 32 bits (4 levels x 8-bit site
//    id, deeper frames fold into their 4-deep prefix) and accumulate in a
//    fixed open-addressed table, exported in Brendan Gregg's folded format
//    for flamegraph.pl / speedscope.
//  * Everything is relaxed atomics on preallocated cells: no locks, no
//    allocation on the hot path, TSan-clean. Disabled, each scope costs one
//    pointer test; with MANTIS_TELEMETRY=OFF the macros compile away.
//
// Ownership mirrors the tracer: one Profiler per telemetry::Telemetry
// bundle, reached via loop.telemetry().prof(). Enable before running,
// then report_json() / folded() / ProfileReport after.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/prof/alloc_hook.hpp"
#include "util/time.hpp"

namespace mantis::telemetry::prof {

/// Cost-attribution buckets for simulator work. Sites map to kinds; the
/// report aggregates both ways.
enum class EventKind : std::uint8_t {
  kOther = 0,           ///< dispatch remainder, uncategorized scopes
  kPacketTransit = 1,   ///< link serialization/propagation/delivery
  kPipelineExecute = 2, ///< switch ingress/egress pipeline passes
  kTmDequeue = 3,       ///< traffic-manager queueing and service
  kControlDriver = 4,   ///< driver channel ops and completions
  kAgentPoll = 5,       ///< agent dialogue iterations
  kFaultTransition = 6, ///< fault-schedule link transitions
  kInt = 7,             ///< in-band telemetry processing
};
constexpr std::size_t kNumKinds = 8;
const char* kind_name(EventKind k);

/// Site ids are 1..255 (0 reserved = "no site"); they pack 4-deep into the
/// 32-bit folded-stack path key.
using SiteId = std::uint8_t;
constexpr std::size_t kMaxSites = 256;

/// Registers an instrumentation site (idempotent per call site via the
/// macro's static local). `name` must be a static string. Returns 0 if the
/// registry is full (the scope then attributes to the overflow bucket).
SiteId register_site(const char* name, EventKind kind);

/// Registry lookups for report generation.
const char* site_name(SiteId id);
EventKind site_kind(SiteId id);
std::size_t num_sites();

// ---------------------------------------------------------------------------

/// Aggregated snapshot, safe to take while nothing is mid-round. All
/// wall-clock fields are host nanoseconds.
struct ProfileReport {
  struct KindStats {
    std::uint64_t count = 0;     ///< scope entries attributed to this kind
    std::uint64_t self_ns = 0;   ///< exclusive wall time
    std::uint64_t allocs = 0;    ///< exclusive heap allocations
  };
  struct SiteStats {
    std::string name;
    EventKind kind = EventKind::kOther;
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t allocs = 0;
  };
  struct ShardStats {
    std::uint64_t events = 0;
    std::uint64_t wall_ns = 0;  ///< inclusive dispatch time on this shard
    std::uint64_t allocs = 0;
  };
  struct HeapStats {
    std::uint64_t pushes = 0;        ///< global queue pushes
    std::uint64_t pops = 0;          ///< global queue pops
    std::uint64_t peak_depth = 0;    ///< max global queue size observed
    std::uint64_t local_pushes = 0;  ///< shard-local heap pushes (workers)
    std::uint64_t outbox_pushes = 0; ///< cross-shard outbox parks
  };
  struct RoundStats {
    std::uint64_t rounds = 0;
    std::uint64_t barrier_stall_ns = 0;   ///< main-thread wait for workers
    std::uint64_t idle_shard_rounds = 0;  ///< (shard, round) pairs with 0 events
    std::uint64_t sum_round_max_events = 0;
    std::uint64_t sum_round_events = 0;
    std::size_t shard_count = 0;
    /// Load imbalance: mean over rounds of (busiest shard events) /
    /// (mean shard events). 1.0 = perfectly balanced; N = one shard does
    /// all the work of N.
    double imbalance() const;
  };
  struct Sample {
    Time vt = 0;                 ///< virtual time at sample
    std::uint64_t events = 0;    ///< cumulative events dispatched
    std::array<std::uint64_t, kNumKinds> kind_self_ns{};
  };

  bool compiled = false;  ///< MANTIS_TELEMETRY_ENABLED != 0
  bool enabled = false;
  std::uint64_t events = 0;          ///< event callbacks dispatched
  std::uint64_t wall_ns = 0;         ///< inclusive dispatch wall time
  std::uint64_t event_allocs = 0;    ///< allocations inside dispatch
  std::uint64_t lifetime_allocs = 0; ///< process-wide operator-new count
  std::uint64_t lifetime_frees = 0;
  std::array<KindStats, kNumKinds> kinds{};
  std::vector<SiteStats> sites;      ///< ordered by site id
  std::vector<ShardStats> shards;
  HeapStats heap;
  RoundStats rounds;
  std::vector<std::pair<std::string, std::uint64_t>> folded;  ///< stack -> ns
  std::vector<Sample> samples;

  /// Mean heap allocations per dispatched event (the pooling-refactor
  /// baseline pinned by tests/test_prof.cpp).
  double allocs_per_event() const {
    return events == 0 ? 0.0
                       : static_cast<double>(event_allocs) /
                             static_cast<double>(events);
  }

  /// {"schema": "mantis-prof/1", ...} — embeddable as the "prof" section of
  /// a bench report (telemetry::report_json overload).
  std::string to_json() const;
  /// Brendan Gregg folded-stack format: "root;child;leaf <self_ns>\n".
  std::string to_folded() const;
};

// ---------------------------------------------------------------------------

class Profiler {
 public:
  static constexpr std::size_t kFoldedSlots = 1024;
  static constexpr std::size_t kMaxSamples = 4096;

  Profiler();
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Enable before the run; counters accumulate until reset(). Never
  /// affects virtual-time ordering — safe to flip in equivalence tests.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  void reset();

  // ---- hot-path accounting (callers pre-check enabled()) ----

  /// Exclusive attribution of one finished scope to its site + folded path.
  void attribute(SiteId site, std::uint32_t path, std::uint64_t self_ns,
                 std::uint64_t self_allocs);
  /// One event dispatched: inclusive cost, charged to shard (< 0 = main
  /// loop / control context, accounted as a synthetic extra cell).
  void count_event(int shard, std::uint64_t incl_ns,
                   std::uint64_t incl_allocs);

  void count_heap_push(std::size_t depth_after);
  void count_heap_pop() {
    heap_pops_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_heap_pop(std::uint64_t n) {
    heap_pops_.fetch_add(n, std::memory_order_relaxed);
  }
  void count_local_push(std::uint64_t n = 1) {
    local_pushes_.fetch_add(n, std::memory_order_relaxed);
  }
  void count_outbox_push() {
    outbox_pushes_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- parallel-engine accounting (main thread, between rounds) ----

  /// Sizes the per-shard cell array; call before workers start (the array
  /// is only ever grown from the engine ctor / sequential context).
  void ensure_shards(std::size_t count);
  std::size_t shard_count() const { return shard_cells_.size(); }
  /// One synchronization round: busiest-shard event count, total events,
  /// shards that had work, shards that sat idle (lookahead-limited), and
  /// main-thread wall time spent waiting at the barrier.
  void note_round(std::uint64_t max_events, std::uint64_t total_events,
                  std::size_t idle_shards, std::uint64_t stall_ns);

  /// Appends one counter-track sample at virtual time `vt` (bounded at
  /// kMaxSamples; main thread only). Chrome export renders the deltas.
  void sample(Time vt);

  // ---- reporting ----

  ProfileReport report() const;
  std::string report_json() const { return report().to_json(); }
  std::string folded() const { return report().to_folded(); }

  /// Monotonic host clock in ns (steady_clock), shared by scopes and the
  /// engine's barrier-stall timing.
  static std::int64_t wall_now_ns();

 private:
  struct alignas(64) SiteCell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> self_ns{0};
    std::atomic<std::uint64_t> allocs{0};
  };
  struct alignas(64) ShardCell {
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> wall_ns{0};
    std::atomic<std::uint64_t> allocs{0};
  };
  struct FoldedSlot {
    std::atomic<std::uint32_t> path{0};  ///< 0 = empty
    std::atomic<std::uint64_t> self_ns{0};
    std::atomic<std::uint64_t> count{0};
  };

  std::atomic<bool> enabled_{false};

  std::unique_ptr<SiteCell[]> site_cells_;    ///< [kMaxSites]
  std::unique_ptr<FoldedSlot[]> folded_;      ///< [kFoldedSlots]
  std::atomic<std::uint64_t> folded_overflow_ns_{0};

  std::vector<std::unique_ptr<ShardCell>> shard_cells_;
  ShardCell main_cell_;  ///< control / sequential dispatch

  std::atomic<std::uint64_t> heap_pushes_{0};
  std::atomic<std::uint64_t> heap_pops_{0};
  std::atomic<std::uint64_t> heap_peak_depth_{0};
  std::atomic<std::uint64_t> local_pushes_{0};
  std::atomic<std::uint64_t> outbox_pushes_{0};

  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> barrier_stall_ns_{0};
  std::atomic<std::uint64_t> idle_shard_rounds_{0};
  std::atomic<std::uint64_t> sum_round_max_events_{0};
  std::atomic<std::uint64_t> sum_round_events_{0};

  std::vector<ProfileReport::Sample> samples_;  ///< main thread only
};

// ---------------------------------------------------------------------------
// RAII scopes. Frame stacks are thread-local so shard workers profile
// independently; self-time = elapsed - child time, computed on unwind.

struct Frame {
  Frame* parent = nullptr;
  SiteId site = 0;
  std::uint32_t path = 0;
  std::int64_t t0 = 0;
  std::uint64_t a0 = 0;
  std::int64_t child_ns = 0;
  std::uint64_t child_allocs = 0;
};

namespace detail {
extern constinit thread_local Frame* tls_frame_top;
/// Path packing: 4 levels x 8-bit site id, oldest frame in the highest
/// occupied byte. Frames deeper than 4 fold into their prefix.
inline std::uint32_t push_path(std::uint32_t parent, SiteId site) {
  if ((parent & 0xFF000000u) != 0) return parent;
  return (parent << 8) | site;
}
}  // namespace detail

class ProfScope {
 public:
  ProfScope(Profiler* prof, SiteId site) {
    if (prof == nullptr || !prof->enabled()) return;
    prof_ = prof;
    frame_.parent = detail::tls_frame_top;
    frame_.site = site;
    frame_.path = detail::push_path(
        frame_.parent != nullptr ? frame_.parent->path : 0u, site);
    frame_.t0 = Profiler::wall_now_ns();
    frame_.a0 = alloc_count();
    // The destructor pops the frame before it goes out of scope. GCC 12
    // cannot follow prof_ across the scope's calls and warns that the
    // thread-local may outlive it (-Wdangling-pointer); a false positive.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdangling-pointer"
#endif
    detail::tls_frame_top = &frame_;
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic pop
#endif
  }
  ~ProfScope() {
    if (prof_ == nullptr) return;
    detail::tls_frame_top = frame_.parent;
    std::int64_t incl_ns = Profiler::wall_now_ns() - frame_.t0;
    if (incl_ns < 0) incl_ns = 0;
    const std::uint64_t incl_allocs = alloc_count() - frame_.a0;
    std::int64_t self_ns = incl_ns - frame_.child_ns;
    if (self_ns < 0) self_ns = 0;
    const std::uint64_t self_allocs =
        incl_allocs >= frame_.child_allocs ? incl_allocs - frame_.child_allocs
                                           : 0;
    prof_->attribute(frame_.site, frame_.path,
                     static_cast<std::uint64_t>(self_ns), self_allocs);
    if (frame_.parent != nullptr) {
      frame_.parent->child_ns += incl_ns;
      frame_.parent->child_allocs += incl_allocs;
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* prof_ = nullptr;
  Frame frame_;
};

/// Wraps one event-callback dispatch: root "event.dispatch" scope plus the
/// per-shard event/cost counters. `shard` < 0 means the main-loop context.
class EventScope {
 public:
  EventScope(Profiler* prof, int shard) {
    if (prof == nullptr || !prof->enabled()) return;
    prof_ = prof;
    shard_ = shard;
    frame_.parent = detail::tls_frame_top;
    frame_.site = dispatch_site();
    frame_.path = detail::push_path(
        frame_.parent != nullptr ? frame_.parent->path : 0u, frame_.site);
    frame_.t0 = Profiler::wall_now_ns();
    frame_.a0 = alloc_count();
    detail::tls_frame_top = &frame_;
  }
  ~EventScope() {
    if (prof_ == nullptr) return;
    detail::tls_frame_top = frame_.parent;
    std::int64_t incl_ns = Profiler::wall_now_ns() - frame_.t0;
    if (incl_ns < 0) incl_ns = 0;
    const std::uint64_t incl_allocs = alloc_count() - frame_.a0;
    std::int64_t self_ns = incl_ns - frame_.child_ns;
    if (self_ns < 0) self_ns = 0;
    const std::uint64_t self_allocs =
        incl_allocs >= frame_.child_allocs ? incl_allocs - frame_.child_allocs
                                           : 0;
    prof_->attribute(frame_.site, frame_.path,
                     static_cast<std::uint64_t>(self_ns), self_allocs);
    prof_->count_event(shard_, static_cast<std::uint64_t>(incl_ns),
                       incl_allocs);
    if (frame_.parent != nullptr) {
      // Nested dispatch (e.g. agent pacing re-entering run_until) rolls up
      // into the enclosing event like any other child scope.
      frame_.parent->child_ns += incl_ns;
      frame_.parent->child_allocs += incl_allocs;
    }
  }
  EventScope(const EventScope&) = delete;
  EventScope& operator=(const EventScope&) = delete;

 private:
  static SiteId dispatch_site();

  Profiler* prof_ = nullptr;
  int shard_ = -1;
  Frame frame_;
};

}  // namespace mantis::telemetry::prof

// ---------------------------------------------------------------------------
// Instrumentation macro. `prof` is a prof::Profiler* (null = no-op), `kind`
// a bare EventKind enumerator (kPacketTransit, ...), `name` a static string.
// Mirrors MANTIS_SPAN: compiled out entirely with MANTIS_TELEMETRY=OFF,
// one pointer test + one relaxed load when compiled in but disabled.

#if MANTIS_TELEMETRY_ENABLED

#define MANTIS_PROF_CAT2(a, b) a##b
#define MANTIS_PROF_CAT(a, b) MANTIS_PROF_CAT2(a, b)

#define MANTIS_PROF_SCOPE(profiler, kind, name)                                \
  static const ::mantis::telemetry::prof::SiteId MANTIS_PROF_CAT(              \
      mantis_prof_site_, __LINE__) =                                           \
      ::mantis::telemetry::prof::register_site(                                \
          name, ::mantis::telemetry::prof::EventKind::kind);                   \
  ::mantis::telemetry::prof::ProfScope MANTIS_PROF_CAT(                        \
      mantis_prof_scope_, __LINE__)(profiler,                                  \
                                    MANTIS_PROF_CAT(mantis_prof_site_,         \
                                                    __LINE__))

#else

#define MANTIS_PROF_SCOPE(profiler, kind, name) \
  do {                                          \
  } while (false)

#endif  // MANTIS_TELEMETRY_ENABLED
