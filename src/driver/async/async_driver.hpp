// AsyncDriver: the batched asynchronous driver runtime.
//
// The synchronous Driver models a CPU thread blocked on each PCIe op; a
// dialogue's push phase therefore pays (queueing + full op latency) per
// update. This runtime instead coalesces one epoch's control-plane ops into
// a single DMA-modeled transfer and overlaps transfers with agent compute:
//
//  * BatchBuilder (driver/batch.hpp, the sync Driver's op list too)
//    collects table add/mod/del, set_default, and register ops; submit()
//    turns them into one transfer whose cost splits into driver-thread
//    *descriptor prep* (batch_overhead + Σ batch_prep(solo)) and *wire/DMA
//    occupancy* (one shared pcie_rtt + Σ batch_dma(solo)). `solo` is
//    Driver::solo_cost, which also touches the memo during prep, and every
//    effect is Driver::apply_op — the same mapping the sync paths use.
//    Both per-op terms are heavily discounted against the solo cost — the
//    driver walks its metadata once per batch and the DMA engine streams
//    ops back-to-back behind one round trip (CostModel calibration).
//  * Pipelining: prep runs on the (single) driver thread, serialized by
//    prep_free_; the DMA is reserved on the Channel at the future instant
//    prep finishes (Channel::submit_at), so batch N+1's prep overlaps
//    batch N's DMA. At most `pipeline_depth` transfers are in flight: batch
//    i's prep additionally waits for batch i-depth's completion (a DMA
//    descriptor-ring slot must free up).
//  * Completions are *typed* and reaped strictly in submit order: per-op
//    status, entry handles for adds, cell values for reads. The whole
//    schedule is computed eagerly at submit() from channel arithmetic, so
//    completion times are known synchronously and identical under the
//    sequential and parallel fabric engines (driver events are
//    control-shard events; nothing here depends on worker scheduling).
//  * Atomicity: a batched transfer validates every op at the completion
//    instant before applying any (two-phase); a mid-batch error — a stale
//    entry handle, an unknown table, a full table — aborts the whole batch
//    with per-op diagnostics and no state change. With
//    DriverOptions::enable_batching=false the runtime degrades to one
//    transfer per op (the ablation path): no shared round trip, no
//    discounts, and no cross-op atomicity.
//
// Provenance: every op in a batch is stamped with the *submitting*
// reaction's id (SubmitOptions::reaction_id) via ScopedAttribution, so flow
// arcs and first-effect detection stay truthful even though the apply runs
// after — or entirely outside — the submitting reaction's frame.
//
// Completion events capture only the batch record and sinks owned by the
// loop's telemetry (never the AsyncDriver itself), so tearing down an
// AsyncDriver with batches still in flight is safe — the effects still
// apply at their completion instants, they just can't be reaped.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "driver/async/completion.hpp"
#include "driver/batch.hpp"
#include "driver/driver.hpp"

namespace mantis::driver {

struct AsyncDriverOptions {
  /// Maximum transfers in flight (descriptor-ring depth). Batch i's prep
  /// waits for batch i-depth's completion; 1 = no overlap between batches.
  std::size_t pipeline_depth = 2;
};

/// Per-submit metadata.
struct SubmitOptions {
  std::uint64_t reaction_id = 0;  ///< provenance stamp for every op applied
  /// Span/flight-recorder label; must be a static string literal.
  const char* label = "driver.async.batch";
};

class AsyncDriver {
 public:
  explicit AsyncDriver(Driver& drv, AsyncDriverOptions opts = {});

  Driver& driver() { return *drv_; }
  std::size_t pipeline_depth() const { return opts_.pipeline_depth; }

  /// Schedules the batch (must be non-empty) and returns immediately; the
  /// caller keeps computing while prep and DMA proceed in virtual time.
  /// Effects apply at the completion instant, in builder order.
  BatchId submit(BatchBuilder batch, SubmitOptions sopts = {});

  /// Batches submitted but not yet reaped.
  std::size_t in_flight() const { return queue_.size(); }
  /// True when the oldest unreaped batch has already completed (its
  /// completion can be reaped without advancing virtual time).
  bool ready() const { return !queue_.empty() && queue_.front()->done; }
  /// Completion instant of a submitted batch — known at submit time; the
  /// schedule is deterministic channel arithmetic.
  Time completion_time(BatchId id) const;

  /// Reaps the oldest batch if it has completed; nullopt otherwise (or when
  /// nothing is in flight). Never advances virtual time.
  std::optional<BatchCompletion> try_reap();
  /// Reaps the oldest batch, advancing virtual time to its completion if
  /// needed (other actors keep running meanwhile). Expects one in flight.
  BatchCompletion reap();
  /// Drains every in-flight batch, in submit order.
  std::vector<BatchCompletion> reap_all();

  std::uint64_t batches_submitted() const { return completions_.size(); }

 private:
  struct InFlight {
    const char* label = "driver.async.batch";
    std::vector<Op> ops;
    BatchCompletion c;
    bool done = false;        ///< completion event has executed
    std::size_t applied = 0;  ///< degraded mode: per-op applies so far
  };

  /// Everything a completion event needs, all owned by objects that outlive
  /// the event (the Driver and the loop's telemetry) — captured by value so
  /// the events never dereference the AsyncDriver.
  struct Sinks {
    sim::Switch* sw = nullptr;
    telemetry::ProvenanceContext* prov = nullptr;
    telemetry::Counter* batches = nullptr;
    telemetry::Counter* ops = nullptr;
    telemetry::Counter* aborted = nullptr;
    telemetry::Histogram* batch_ops = nullptr;
    telemetry::Histogram* batch_ns = nullptr;
  };

  /// Two-phase validate + apply of a whole batched transfer.
  static void finish_batched(const Sinks& s,
                             const std::shared_ptr<InFlight>& rec);
  /// Degraded (enable_batching=false) per-op apply; finalizes on last op.
  static void finish_single(const Sinks& s,
                            const std::shared_ptr<InFlight>& rec,
                            std::size_t i);
  static void finalize(const Sinks& s, const std::shared_ptr<InFlight>& rec,
                       Time now);

  Driver* drv_;
  AsyncDriverOptions opts_;
  Sinks sinks_;

  /// Driver-thread serialization point: when the prep of the most recently
  /// submitted batch finishes.
  Time prep_free_ = 0;
  /// Completion instant of every batch ever submitted, by id-1 (ring
  /// gating + completion_time lookups).
  std::vector<Time> completions_;
  /// Unreaped batches, submit order (== completion order).
  std::deque<std::shared_ptr<InFlight>> queue_;

  telemetry::Gauge* inflight_gauge_;
};

}  // namespace mantis::driver
