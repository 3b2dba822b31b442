// Per-shard deferred-telemetry lane for the parallel fabric engine.
//
// The determinism contract (docs/NETWORK.md) requires that a parallel run
// produce byte-identical telemetry to the sequential engine. Counters are
// order-independent sums, but histograms (P² quantile markers), gauges
// (last-write-wins) and the flight-recorder ring are *insertion-order
// dependent*: two shards recording concurrently would interleave by wall
// clock. So while a worker thread executes a shard's events, every such
// sink call is deferred into the thread's installed ShardLane, tagged with
// the canonical key of the *executing event* — (virtual time, scheduling
// shard, per-shard sequence number) plus an intra-event emission index —
// and at each round barrier the engine merges all lanes by that key and
// applies the operations on the main thread. The merged order equals the
// order a sequential run would have produced, because sequential execution
// order *is* the canonical key order (see sim/event_loop.hpp). Each lane is
// recorded in that order too, so the barrier merges the lanes (k-way, over
// their heads) rather than sorting them.
//
// When no lane is installed (sequential engine, control-plane phases,
// everything outside the fabric) the sinks record directly, exactly as
// before: the lane costs one thread-local load per record site.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/small_fn.hpp"
#include "util/time.hpp"

namespace mantis::telemetry {

class ShardLane {
 public:
  /// One deferred sink operation, tagged with the canonical key of the
  /// event that emitted it. `apply` replays the operation on the main
  /// thread (where no lane is installed, so sinks record directly).
  struct Op {
    Time t = 0;
    int src = -1;
    std::uint64_t seq = 0;
    std::uint32_t emit = 0;
    /// Move-only, pool-backed (util/small_fn.hpp): most deferrals are a
    /// pointer and a double, which fit inline — a histogram record in a
    /// parallel round costs no allocation.
    util::SmallFn apply;
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
    emit_ = 0;
  }

  void defer(util::SmallFn apply) {
    ops_.push_back(Op{t_, src_, seq_, emit_++, std::move(apply)});
  }

  std::vector<Op>& ops() { return ops_; }
  bool empty() const { return ops_.empty(); }

  /// Merges every lane's deferred operations into canonical order —
  /// (t, src, seq, emit) — applies them, and clears the lanes. Each lane
  /// must already be in that order (a group's lane is). Must run on a
  /// thread with no lane installed (the engine's barrier phase).
  static void merge_apply(const std::vector<ShardLane*>& lanes);

 private:
  static constinit thread_local ShardLane* tls_;

  Time t_ = 0;
  int src_ = -1;
  std::uint64_t seq_ = 0;
  std::uint32_t emit_ = 0;
  std::vector<Op> ops_;
};

}  // namespace mantis::telemetry
