// Per-shard deferred-telemetry lane for the parallel fabric engine.
//
// The determinism contract (docs/NETWORK.md) requires that a parallel run
// produce byte-identical telemetry to the sequential engine. Counters are
// order-independent sums, but histograms (P² quantile markers), gauges
// (last-write-wins) and the trace and flight-recorder rings are *insertion-
// order dependent*: two shards recording concurrently would interleave by
// wall clock. So while a worker thread executes a shard group's events,
// every such sink call is deferred into the thread's installed ShardLane,
// tagged with the canonical key of the *executing event* — (virtual time,
// scheduling shard, per-shard sequence number) — and replayed at the round
// barrier in that key order, which is the order a sequential run records
// in (sequential execution order *is* the canonical key order, see
// sim/event_loop.hpp).
//
// A lane keeps typed per-sink runs. A histogram sample or gauge set is a
// 32-byte Record in its sink's run, found by the dense slot the sink takes
// on its first deferral; a gauge's run keeps only its latest record, since
// only the last write survives. The sinks without a typed record (trace
// ring, flight recorder, INT collector) defer closures into one Op stream.
// Each run is already in canonical order — a group pops its events in that
// order and an event's ops keep their emission order — and an event runs in
// exactly one group, so no two lanes hold the same key.
//
// Ops of different sinks commute, so the barrier replays sinks
// independently (LaneReplay): each sink's item k-way merges that sink's
// per-lane runs (a gauge applies only its highest-key record), the closure
// stream is one more item, and the engine's threads claim items largest
// first.
//
// When no lane is installed (sequential engine, control-plane phases,
// everything outside the fabric) the sinks record directly, exactly as
// before: the lane costs one thread-local load per record site.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/small_fn.hpp"
#include "util/time.hpp"

namespace mantis::telemetry {

/// The dense lane slot of a typed sink (Histogram, Gauge). Taken on the
/// sink's first deferral, so lanes size to the sinks that defer rather than
/// to every sink in the registry; returned to the pool when the sink dies.
class LaneSlot {
 public:
  LaneSlot() = default;
  ~LaneSlot();
  LaneSlot(const LaneSlot&) = delete;
  LaneSlot& operator=(const LaneSlot&) = delete;

  std::int32_t get() {
    const std::int32_t slot = slot_.load(std::memory_order_acquire);
    return slot >= 0 ? slot : claim();
  }

 private:
  std::int32_t claim();

  std::atomic<std::int32_t> slot_{-1};
};

class ShardLane {
 public:
  /// One deferred histogram sample or gauge set, tagged with the canonical
  /// key of the event that made it.
  struct Record {
    Time t = 0;
    int src = -1;
    std::uint64_t seq = 0;
    double value = 0;
  };
  /// One deferred closure (trace ring, flight recorder, INT collector).
  /// `apply` replays it where no lane is installed, so sinks record
  /// directly. Move-only and pool-backed (util/small_fn.hpp).
  struct Op {
    Time t = 0;
    int src = -1;
    std::uint64_t seq = 0;
    util::SmallFn apply;
  };
  /// How a typed sink replays: `apply(self, value)` records directly, and a
  /// `last_wins` sink (a gauge) applies only its highest-key record.
  struct Sink {
    void* self = nullptr;
    void (*apply)(void* self, double value) = nullptr;
    bool last_wins = false;
  };

  /// The lane installed on the calling thread, or nullptr (record direct).
  static ShardLane* current() { return tls_; }
  static void set_current(ShardLane* lane) { tls_ = lane; }

  /// Called by the engine before each event callback runs: subsequent
  /// deferrals carry this event's canonical key.
  void begin_event(Time t, int src, std::uint64_t seq) {
    t_ = t;
    src_ = src;
    seq_ = seq;
  }

  /// Defers one value of the typed sink holding lane slot `slot`.
  void defer(std::int32_t slot, const Sink& sink, double value) {
    const auto i = static_cast<std::size_t>(slot);
    if (i >= runs_.size()) runs_.resize(i + 1);
    Run& run = runs_[i];
    const Record rec{t_, src_, seq_, value};
    if (run.records.empty()) {
      run.sink = sink;
      run.records.push_back(rec);
    } else if (sink.last_wins) {
      run.records.back() = rec;
    } else {
      run.records.push_back(rec);
    }
  }

  /// Defers one closure into the lane's closure stream.
  void defer(util::SmallFn apply) {
    ops_.push_back(Op{t_, src_, seq_, std::move(apply)});
  }

  const std::vector<Op>& ops() const { return ops_; }
  bool empty() const;

 private:
  friend class LaneReplay;

  /// One typed sink's records this round, in canonical order.
  struct Run {
    Sink sink;
    std::vector<Record> records;
  };

  static constinit thread_local ShardLane* tls_;

  Time t_ = 0;
  int src_ = -1;
  std::uint64_t seq_ = 0;
  std::vector<Run> runs_;  ///< by lane slot
  std::vector<Op> ops_;
};

/// The telemetry replay of one engine barrier. plan() lists one item per
/// typed sink with deferred records plus one for the closure stream,
/// largest first; replaying an item applies its ops in canonical order and
/// clears them from the lanes. Items touch disjoint sinks, so any number of
/// threads with no lane installed may replay distinct items concurrently.
class LaneReplay {
 public:
  explicit LaneReplay(std::vector<ShardLane*> lanes)
      : lanes_(std::move(lanes)) {}

  /// Lists the items of the lanes' deferred ops and resets the claim
  /// cursor. Call while no thread defers into or replays from the lanes.
  void plan();
  std::size_t size() const { return items_.size(); }
  /// Replays item `i` of the current plan.
  void replay(std::size_t i);
  /// Claims items in plan order and replays them until none is left.
  void run() {
    for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
         i < items_.size(); i = next_.fetch_add(1, std::memory_order_relaxed)) {
      replay(i);
    }
  }

 private:
  struct Item {
    std::int32_t slot = -1;  ///< lane slot, or -1 for the closure stream
    std::size_t ops = 0;
  };

  std::vector<ShardLane*> lanes_;
  std::vector<Item> items_;
  std::atomic<std::size_t> next_{0};
};

}  // namespace mantis::telemetry
