// Per-shard-group telemetry lane for the parallel fabric engine.
//
// The determinism contract (docs/NETWORK.md) requires that a parallel run
// produce byte-identical telemetry to the sequential engine. While a worker
// thread executes a shard group's events, the group's ShardLane is installed
// on that thread and carries the canonical key of the *executing event* —
// (virtual time, scheduling shard, per-shard sequence number). Sinks use it
// in one of two ways:
//
//  * Order-free sinks record in place. Counters are relaxed atomic sums.
//    Histograms and gauges (telemetry/metrics.hpp) write the lane's group
//    part of the sink, and a read merges the parts: histogram counts add up,
//    and a gauge reads the part with the highest event key.
//  * The trace ring, flight recorder and INT collector keep their records in
//    insertion order, so they defer closures into the lane, tagged with the
//    event key. At the round barrier the engine's main thread applies every
//    lane's closures k-way merged in key order (merge_apply), which is the
//    order a sequential run records in (sequential execution order *is* the
//    canonical key order, see sim/event_loop.hpp).
//
// Each lane's closures are already in canonical order — a group pops its
// events in that order and an event's closures keep their emission order —
// and an event runs in exactly one group, so no two lanes hold the same key.
//
// When no lane is installed (sequential engine, control-plane phases,
// everything outside the fabric) every sink records directly: the lane
// costs one thread-local load per record site.
#pragma once

#include <compare>
#include <cstdint>
#include <vector>

#include "util/small_fn.hpp"
#include "util/time.hpp"

namespace mantis::telemetry {

/// The canonical key of an executed event (sim/event_loop.hpp). Keys order
/// events the way a sequential run executes them.
struct EventKey {
  Time t = 0;
  int src = -1;
  std::uint64_t seq = 0;

  auto operator<=>(const EventKey&) const = default;
};

class ShardLane {
 public:
  /// One deferred closure. `apply` replays it where no lane is installed, so
  /// sinks record directly. Move-only and pool-backed (util/small_fn.hpp).
  struct Op {
    EventKey key;
    util::SmallFn apply;
  };

  /// The lane of engine group `group`. Sinks split into `groups` parts, at
  /// least the engine's group count (MetricsRegistry::group_parts_width).
  explicit ShardLane(int group = 0, int groups = 1)
      : group_(group), groups_(groups) {}

  /// The lane installed on the calling thread, or nullptr (record direct).
  static ShardLane* current() { return tls_; }
  static void set_current(ShardLane* lane) { tls_ = lane; }

  int group() const { return group_; }
  int groups() const { return groups_; }

  /// Called by the engine before each event callback runs: subsequent
  /// records carry this event's canonical key.
  void begin_event(Time t, int src, std::uint64_t seq) { key_ = {t, src, seq}; }
  const EventKey& key() const { return key_; }

  /// Defers one closure into the lane's closure stream.
  void defer(util::SmallFn apply) {
    ops_.push_back(Op{key_, std::move(apply)});
  }

  const std::vector<Op>& ops() const { return ops_; }
  bool empty() const { return ops_.empty(); }

  /// Applies the closures of every lane in `lanes`, k-way merged in
  /// canonical order, and clears them. Call with no lane installed, while
  /// no thread defers into the lanes.
  static void merge_apply(const std::vector<ShardLane*>& lanes);

 private:
  static constinit thread_local ShardLane* tls_;

  int group_;
  int groups_;
  EventKey key_;
  std::vector<Op> ops_;
};

}  // namespace mantis::telemetry
