// Reaction provenance: a monotonically increasing reaction_id minted per
// dialogue iteration and threaded agent -> driver -> sim so one reaction
// renders as a connected Chrome-trace flow arc (agent iteration span ->
// driver op spans -> sim table-commit span -> first-effect packet span) and
// its poll/compute/push/take-effect latency breakdown lands in registry
// histograms.
//
// Iterations can nest: with multiple agents on one event loop, agent B's
// dialogue iteration may run inside agent A's driver wait (run_until), so
// the live reaction is a stack of frames, not a scalar. Driver ops and table
// mutations attribute to the innermost open frame.
//
// First-effect detection: table entries/defaults are stamped with the
// mutating reaction's id; when that reaction's iteration *ends* with at
// least one mutation, the context arms effect_pending_. The pipeline flags
// the first packet whose lookup hits a stamped rule (one branch per lookup),
// and the switch converts the flag into a take-effect histogram sample plus
// the flow-ending span. Arming at end_reaction — not at mutation time —
// avoids false positives from packets arriving mid-reaction.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"
#include "util/time.hpp"

namespace mantis::telemetry {

class Histogram;
class Counter;
class MetricsRegistry;

class ProvenanceContext {
 public:
  ProvenanceContext(MetricsRegistry& metrics, Tracer& tracer,
                    FlightRecorder& recorder);

  // ---- agent side ----
  /// Opens a new reaction frame and returns its id (ids start at 1; 0 means
  /// "no reaction in flight"). Emits the flow-start event on the agent track.
  std::uint64_t begin_reaction(Time now);
  /// Closes the frame `rid` (must be the innermost open frame), records the
  /// poll/compute/push breakdown, and — if the reaction mutated dataplane
  /// state — arms first-effect detection.
  void end_reaction(std::uint64_t rid, Time now, Duration poll,
                    Duration compute, Duration push);
  /// Innermost open reaction id, or 0.
  std::uint64_t current_reaction() const {
    return frames_.empty() ? 0 : frames_.back().id;
  }

  // ---- driver side ----
  /// One completed PCIe-model op: span on the driver-channel track with the
  /// reaction id as argument, flow step, and a flight-recorder entry. `op`
  /// must be a static string literal (trace events don't copy).
  void on_driver_op(const char* op, const std::string& detail, Time submitted,
                    Time completion);

  /// Same, but attributed to an explicit reaction id: async batch
  /// completions execute after (or outside) the submitting reaction's
  /// frame, so the driver runtime captures the id at submit time and stamps
  /// the completed ops with it here.
  void on_driver_op_for(std::uint64_t rid, const char* op,
                        const std::string& detail, Time submitted,
                        Time completion);

  /// Forces table-mutation attribution to `rid` while alive. The async
  /// driver wraps a batch's apply phase in one of these so every entry the
  /// batch touches is stamped with the *submitting* reaction — not whatever
  /// frame happens to be open at the completion instant. If the submitting
  /// frame is still open (the agent reaping its own push), its `mutated`
  /// bit is set so first-effect detection arms as usual; mutations applied
  /// after the frame closed (mirror maintenance) stamp entries but never
  /// re-arm.
  class ScopedAttribution {
   public:
    ScopedAttribution(ProvenanceContext& ctx, std::uint64_t rid)
        : ctx_(&ctx), prev_(ctx.forced_rid_) {
      ctx_->forced_rid_ = rid;
    }
    ~ScopedAttribution() { ctx_->forced_rid_ = prev_; }
    ScopedAttribution(const ScopedAttribution&) = delete;
    ScopedAttribution& operator=(const ScopedAttribution&) = delete;

   private:
    ProvenanceContext* ctx_;
    std::uint64_t prev_;
  };

  // ---- sim side ----
  /// Called by TableState on add/modify/delete/set_default. Marks the
  /// innermost frame as having mutated dataplane state and returns its id
  /// (the stamp for the entry). Returns 0 outside any reaction (management
  /// plane, test setup).
  std::uint64_t on_table_mutation();
  /// Hot path (one compare per table lookup): the pipeline reports the
  /// provenance stamp of the rule a packet hit. Safe from shard workers:
  /// effect_pending_ is a relaxed atomic (armed on the control thread
  /// strictly before any round that can observe the stamped rule), and the
  /// flag itself is thread-local — it is set and consumed within one event
  /// on one thread, so shards never contend on it.
  void note_hit(std::uint64_t stamp) {
    if (stamp != 0 &&
        stamp == effect_pending_.load(std::memory_order_relaxed)) {
      hit_owner_ = this;
    }
  }
  /// The switch polls this after each pipeline pass; true at most once per
  /// armed reaction. The owner check keeps stacks with several contexts
  /// (multi-fabric tests) from consuming each other's hits.
  bool consume_flagged_hit() {
    if (hit_owner_ != this) return false;
    hit_owner_ = nullptr;
    return true;
  }
  /// Converts a consumed hit into the take-effect sample, the first-effect
  /// span [arrival, arrival + pass_latency), and the flow end.
  void on_first_effect(Time arrival, Duration pass_latency);

  std::uint64_t last_reaction() const { return next_id_; }
  std::uint64_t pending_effect_reaction() const {
    return effect_pending_.load(std::memory_order_relaxed);
  }

 private:
  struct Frame {
    std::uint64_t id = 0;
    bool mutated = false;
  };

  Tracer& tracer_;
  FlightRecorder& recorder_;
  Histogram* poll_hist_;
  Histogram* compute_hist_;
  Histogram* push_hist_;
  Histogram* take_effect_hist_;
  Counter* reactions_;
  Counter* first_effects_;

  std::uint64_t next_id_ = 0;
  std::uint64_t forced_rid_ = 0;  ///< ScopedAttribution override (0 = none)
  std::vector<Frame> frames_;
  /// Reaction awaiting its first effect. Relaxed atomic: armed on the
  /// control thread between rounds, read by shard pipelines during rounds.
  std::atomic<std::uint64_t> effect_pending_{0};
  /// end_reaction time of that reaction. Plain: written on the control
  /// thread, read by the shard that consumes the hit; the round dispatch
  /// barrier (release/acquire) orders the write before the read.
  Time committed_at_ = 0;
  /// Set by note_hit, consumed by consume_flagged_hit within the same
  /// pipeline pass on the same thread. Thread-local so shards don't race.
  static constinit thread_local const ProvenanceContext* hit_owner_;
};

}  // namespace mantis::telemetry
