// Deterministic parallel discrete-event engine for the net::Fabric.
//
// Conservative (lookahead-based) parallel DES: per-switch shards execute
// concurrently inside synchronization rounds bounded by the fabric's
// minimum cross-shard delay — the smallest link propagation plus the 1 ns
// minimum serialization time. Any event one shard schedules onto another
// lands at least that far in the future, so a round of width `lookahead`
// can run every shard's events with no cross-shard communication at all;
// cross-shard deliveries park in per-shard outboxes and re-enter the global
// queue at the round barrier.
//
// Determinism contract (docs/NETWORK.md): for any seed, topology and fault
// schedule, a run with N worker threads is byte-identical to the sequential
// engine — same packet orders, same metrics snapshot, same trace ring, same
// .mfr flight-recorder dumps. Three mechanisms compose to guarantee it:
//   1. canonical event keys (t, src shard, per-src seq) assigned identically
//      by both engines (sim/event_loop.hpp),
//   2. per-shard heaps popping in canonical-key order, with control events
//      executing inline at barriers (they sort first among same-t ties, so
//      lowering the round horizon to the first control event keeps every
//      extracted event strictly earlier),
//   3. order-free metric sinks (counters, histograms, gauges) recording in
//      place into per-group parts that reads merge, and the order-dependent
//      trace ring, flight recorder and INT collector deferring closures into
//      per-group lanes that the barrier applies in canonical order
//      (telemetry/shard_lane.hpp).
//
// Barrier: once every group's round has ended, the main thread applies the
// lanes' closures merged in canonical order, reinserts the outboxes into
// the global queue, and extracts and deals the next round.
//
// Shard grouping: canonical tags stay one-per-switch forever (they are part
// of the event keys), but execution shards are GROUPS of switches — a
// datacenter-scale fabric has far more switches than cores, and one heap +
// lane + barrier slot per switch would drown the rounds in bookkeeping.
// The tag -> group map is an LPT greedy over per-switch link degree (a
// static proxy for event load), and purely an execution placement:
// regrouping cannot move an event's canonical key, so any group count is
// byte-identical to any other, threads=1 included.
//
// threads <= 1 is the sequential engine, verbatim: run_until delegates to
// EventLoop::run_until and no worker, lane, or frame machinery exists.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "net/fabric.hpp"
#include "telemetry/shard_lane.hpp"

namespace mantis::net {

class ParallelFabricEngine {
 public:
  struct Options {
    /// Execution shard groups; 0 = auto (2x threads, capped at the switch
    /// count — enough slack for round-robin workers to average out load).
    int groups = 0;
  };

  /// `fabric` must outlive the engine. `threads` is the total worker count
  /// (the calling thread participates, so threads == 2 spawns one helper).
  ParallelFabricEngine(Fabric& fabric, int threads);
  ParallelFabricEngine(Fabric& fabric, int threads, Options options);
  ~ParallelFabricEngine();

  ParallelFabricEngine(const ParallelFabricEngine&) = delete;
  ParallelFabricEngine& operator=(const ParallelFabricEngine&) = delete;

  /// Runs fabric events up to and including `t`, then advances the clock to
  /// exactly `t`. Must be called from the thread that owns the EventLoop
  /// (the same thread every time); nests freely with sequential
  /// EventLoop::run_until calls (driver waits) between invocations.
  void run_until(Time t);

  int threads() const { return threads_; }
  Duration lookahead() const { return lookahead_; }
  std::uint64_t rounds() const { return rounds_; }
  /// Execution shard groups (1 when running sequentially).
  int num_groups() const;
  /// The execution group owning switch tag `tag` (engine must be parallel).
  int group_of(int tag) const;

  /// min over links of (propagation + 1 ns minimum serialization): the
  /// tightest provably-safe synchronization horizon for this fabric.
  static Duration compute_lookahead(Fabric& fabric);

  /// Deterministic LPT (longest-processing-time) greedy: tags sorted by
  /// descending weight (tag ascending among equals), each assigned to the
  /// lightest group so far (lowest id among equals). Returns tag -> group.
  static std::vector<std::int32_t> assign_groups(
      const std::vector<std::uint64_t>& weights, int groups);

 private:
  struct Group {
    Group(int id, int groups) : id(id), lane(id, groups) {}

    int id;
    sim::EventLoop::LocalQueue local;
    std::vector<sim::EventLoop::Event> outbox;
    telemetry::ShardLane lane;
    /// Events executed this round. Written by the owning worker, read and
    /// reset by the main thread after the done_ barrier (that acquire
    /// orders the read after the worker's release increment).
    std::uint64_t executed_round = 0;
  };

  void worker_main(int worker);
  /// Publishes the next round to the helpers and resets done_.
  void publish_round();
  /// Blocks until a round newer than `seen` is published (returns its
  /// number) or stop is requested (returns `seen`). Spins briefly, then
  /// parks on the condition variable.
  std::uint64_t wait_for_round(std::uint64_t seen);
  /// Blocks until every helper has finished the current round.
  void wait_for_helpers();
  /// Drains one group's local heap with its ShardFrame + ShardLane
  /// installed. Runs on whichever thread owns the group this round.
  void run_group(Group& group, Time round_end);
  void run_group_range(int worker, Time round_end);
  /// Main thread, between rounds (the `engine.serial` profiler site):
  /// applies the last round's lane closures, moves its outbox events into
  /// the global queue, and extracts the next round due by `t` and deals it
  /// to the groups. Returns the round's end, or nullopt when the next event
  /// must run inline or none is due.
  std::optional<Time> serial_section(Time t);
  /// Publishes the round ending at `end`, runs the main thread's groups and
  /// waits at the barrier.
  void run_round(Time end);

  sim::EventLoop* loop_;
  Fabric* fabric_;
  int threads_;
  Duration lookahead_;
  std::uint64_t rounds_ = 0;
  /// Hot-path profiler (the loop's bundle); shard/round/barrier accounting
  /// keys off this. Wall-clock only — never feeds back into event order.
  telemetry::prof::Profiler* prof_ = nullptr;

  std::vector<std::unique_ptr<Group>> groups_;
  /// tag (switch) -> execution group id; identity-free: only placement.
  std::vector<std::int32_t> group_of_;
  /// Base of the loop's per-tag sequence counter array (ShardFrame).
  std::uint64_t* seq_base_ = nullptr;
  std::vector<sim::EventLoop::Event> extract_buf_;
  /// The groups' lanes, whose closures the barrier applies.
  std::vector<telemetry::ShardLane*> lanes_;

  // Round handoff: main publishes round_end_ + filled shard heaps, bumps
  // round_seq_ (mutex-guarded counter with an atomic mirror for the spin
  // path), and workers ack through done_.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t round_guard_ = 0;  ///< guarded by mu_
  bool stop_ = false;              ///< guarded by mu_
  std::atomic<std::uint64_t> round_seq_{0};
  std::atomic<bool> stop_flag_{false};
  std::atomic<int> done_{0};
  Time round_end_ = 0;  ///< published before round_seq_ (release) store
};

}  // namespace mantis::net
