// Discrete-event scheduler with a virtual nanosecond clock.
//
// Everything in the reproduction — packet arrivals, pipeline latencies, PCIe
// transactions, reaction CPU time, legacy control-plane clients — runs as
// events on one loop, so the interleaving of the Mantis agent with packet
// processing is deterministic and serializability becomes a testable
// property rather than a hope.
//
// Canonical event order (the parallel-engine determinism contract): every
// event carries a destination tag `dst` (the shard — fabric switch — whose
// state it touches; kControlShard for control-plane/main-thread work), the
// tag `src` of the context that scheduled it, and a per-src sequence number
// `seq`. Events execute in (t, src, seq) order, with control first among
// ties. That key is a pure function of scheduling history — independent of
// which engine runs the events — so the sequential engine and the
// conservative parallel engine (net::ParallelFabricEngine) produce
// byte-identical executions. Code that never tags anything sees the old
// behavior exactly: all events are control-tagged and the per-tag sequence
// degenerates to the global FIFO tie-break.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/calendar_queue.hpp"
#include "telemetry/telemetry.hpp"
#include "util/check.hpp"
#include "util/small_fn.hpp"
#include "util/time.hpp"

namespace mantis::sim {

class EventLoop {
 public:
  /// Move-only (util/small_fn.hpp): packet-carrying captures live in one
  /// pooled block and events can never be copied by accident — the queue
  /// hands them out by move.
  using Callback = util::SmallFn;

  /// Destination tag for control-plane work (agents, drivers, fault
  /// transitions, periodic samplers): always executed on the main thread,
  /// sorted before shard events at the same instant.
  static constexpr int kControlShard = -1;

  struct Event {
    Time t = 0;
    int dst = kControlShard;  ///< shard whose state the callback touches
    int src = kControlShard;  ///< tag of the scheduling context
    std::uint64_t seq = 0;    ///< per-src sequence number
    Callback cb;
  };

  /// Min-heap comparator for the canonical (t, src, seq) order
  /// (kControlShard = -1 sorts first among same-t ties).
  struct RunsAfter {
    bool operator()(const Event& a, const Event& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.src != b.src) return a.src > b.src;
      return a.seq > b.seq;
    }
  };
  /// Per-shard round queue for the parallel engine: a plain binary heap
  /// (rounds hold few events; the calendar ring pays off only on the big
  /// global queue).
  using LocalQueue = EventHeap<Event, RunsAfter>;

  /// Execution context a parallel-engine worker installs (thread-local)
  /// while running one shard group's events for one round. While installed:
  ///  * now() returns the running event's time,
  ///  * `shard` is the RUNNING event's dst tag (the engine updates it per
  ///    event — a group drains several switches' tags interleaved in
  ///    canonical order, exactly as the sequential engine would),
  ///  * schedule_* stamps src = shard and draws seq from seq_base[shard],
  ///    the same per-tag counters the sequential path uses — canonical
  ///    keys stay independent of how switches are grouped into shards,
  ///  * same-tag events inside the horizon go to `local`, everything
  ///    else to `outbox` (cross-switch targets must land >= round_end —
  ///    that is exactly the conservative-lookahead guarantee).
  struct ShardFrame {
    const EventLoop* loop = nullptr;
    int shard = kControlShard;  ///< dst tag of the running event
    Time now = 0;
    Time round_end = 0;
    std::uint64_t* seq_base = nullptr;  ///< per-src counters, index = tag
    LocalQueue* local = nullptr;
    std::vector<Event>* outbox = nullptr;
  };
  static void set_shard_frame(ShardFrame* frame) { tls_frame_ = frame; }
  static ShardFrame* shard_frame() { return tls_frame_; }

  /// The stack-wide telemetry bundle (metrics + tracer). Lazily created;
  /// the tracer's clock is this loop's virtual clock. Everything attached
  /// to this loop (switch, driver, agent, legacy clients) records here.
  telemetry::Telemetry& telemetry();

  /// The bundle's hot-path profiler, or nullptr while the bundle has never
  /// been created. Dispatch and heap accounting key off this cached pointer
  /// so an unprofiled loop pays one null test per site.
  telemetry::prof::Profiler* profiler() const { return prof_; }

  /// Current virtual time — shard-local while a ShardFrame is installed on
  /// the calling thread, the global clock otherwise.
  Time now() const {
    const ShardFrame* f = tls_frame_;
    if (f != nullptr && f->loop == this) return f->now;
    return now_;
  }

  /// Schedules `cb` at absolute time `t` (>= now). The event inherits the
  /// scheduling context's tag as both src and dst, so shard-internal work
  /// (pipeline latencies, queue service) stays on its shard and untagged
  /// code stays control. Ties run in canonical (t, src, seq) order.
  void schedule_at(Time t, Callback cb);

  /// Schedules `cb` `d` nanoseconds from now.
  void schedule_in(Duration d, Callback cb) {
    schedule_at(now() + d, std::move(cb));
  }

  /// Schedules `cb` at `t` for shard `dst` (kControlShard for control).
  /// From a shard context, a cross-shard target must satisfy the lookahead
  /// horizon (t >= round_end) and dst must not be control.
  void schedule_for(int dst, Time t, Callback cb);

  /// Runs the next event; returns false when the queue is empty.
  bool step();

  /// Runs events until the queue is empty or `max_events` executed.
  /// Returns the number executed.
  std::size_t run(std::size_t max_events = static_cast<std::size_t>(-1));

  /// Runs all events with time <= t, then advances the clock to exactly t.
  void run_until(Time t);

  /// Advances the clock without running anything scheduled in between.
  /// Only legal when nothing earlier is pending — used by actors that model
  /// blocking work (e.g. a PCIe transaction occupying the CPU). Prefer
  /// schedule_in for anything that can interleave.
  void advance_now(Time t);

  std::size_t pending() const { return queue_.size(); }

  // ---- parallel-engine plumbing (net::ParallelFabricEngine) ----

  /// Pre-registers shard tags [0, count) so per-src sequence counters never
  /// reallocate under worker threads. Call before the first parallel round.
  void ensure_tags(int count);
  /// Pointer into the per-src counter for `tag`; stable until ensure_tags /
  /// an untagged schedule grows the table, so re-fetch each round.
  std::uint64_t* seq_counter(int tag);
  /// Base of the per-tag counter array (element `tag` = counter for tag,
  /// valid for tags [0, count) after ensure_tags(count)); same stability
  /// caveat as seq_counter. ShardFrame::seq_base points here.
  std::uint64_t* seq_array() { return seq_counter(0); }

  bool queue_empty() const { return queue_.empty(); }
  /// Head-of-queue time / destination; queue must be non-empty.
  Time next_time() const;
  int next_dst() const;

  /// Pops every event with t < limit (in canonical order) into `out`,
  /// stopping early at the first control-destined event — control events
  /// run inline at round barriers, never inside a parallel round. Returns
  /// the (possibly lowered) horizon; every extracted event has t strictly
  /// below it.
  Time extract_until(Time limit, std::vector<Event>& out);

  /// Re-queues an event preserving its tags and sequence number (round
  /// outbox reinsertion; order of reinsertion is irrelevant because the
  /// canonical key is already assigned).
  void reinsert(Event ev);

 private:
  std::uint64_t next_seq(int src);

  /// constinit, like every thread_local a header declares: each translation
  /// unit then reads the slot directly instead of through a TLS init
  /// wrapper, whose result UBSan reported as a null-pointer load.
  static constinit thread_local ShardFrame* tls_frame_;

  /// Calendar queue (sim/calendar_queue.hpp): same pop order as the old
  /// std::priority_queue bit for bit (the key is a strict total order),
  /// O(1)-amortized for the dense fabric workloads.
  CalendarQueue<Event, RunsAfter> queue_;
  Time now_ = 0;
  int exec_tag_ = kControlShard;  ///< dst of the event step() is running
  /// Per-src sequence counters, index src + 1 (slot 0 = control).
  std::vector<std::uint64_t> seq_by_src_ = std::vector<std::uint64_t>(1, 0);
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  telemetry::prof::Profiler* prof_ = nullptr;  ///< cached &telemetry_->prof()
};

}  // namespace mantis::sim
