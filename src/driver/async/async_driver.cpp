#include "driver/async/async_driver.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/provenance.hpp"
#include "util/check.hpp"

namespace mantis::driver {

namespace {

/// One record per op validation failure; nullopt = op is applicable.
/// `occupancy` tracks the net entry-count delta the batch itself causes per
/// table, so capacity is checked against the state the batch produces.
std::optional<std::string> validate_op(
    sim::Switch& sw, const Op& op,
    std::unordered_map<std::string, std::int64_t>& occupancy) {
  try {
    switch (op.kind) {
      case Op::Kind::kAdd: {
        auto& table = sw.table(op.target);
        const auto& decl = table.decl();
        if (op.spec.key.size() != decl.reads.size()) {
          return "key arity " + std::to_string(op.spec.key.size()) +
                 " != " + std::to_string(decl.reads.size());
        }
        if (std::find(decl.actions.begin(), decl.actions.end(),
                      op.spec.action) == decl.actions.end()) {
          return "action not bound: " + op.spec.action;
        }
        auto& delta = occupancy[op.target];
        if (static_cast<std::int64_t>(table.entry_count()) + delta >=
            static_cast<std::int64_t>(table.capacity())) {
          return "table full: " + op.target;
        }
        ++delta;
        return std::nullopt;
      }
      case Op::Kind::kMod: {
        auto& table = sw.table(op.target);
        table.entry(op.handle);  // throws on a stale/unknown handle
        const auto& decl = table.decl();
        if (std::find(decl.actions.begin(), decl.actions.end(), op.action) ==
            decl.actions.end()) {
          return "action not bound: " + op.action;
        }
        return std::nullopt;
      }
      case Op::Kind::kDel: {
        sw.table(op.target).entry(op.handle);
        --occupancy[op.target];
        return std::nullopt;
      }
      case Op::Kind::kSetDefault: {
        const auto& decl = sw.table(op.target).decl();
        if (!op.action.empty() &&
            std::find(decl.actions.begin(), decl.actions.end(), op.action) ==
                decl.actions.end()) {
          return "action not bound: " + op.action;
        }
        return std::nullopt;
      }
      case Op::Kind::kRegWrite:
      case Op::Kind::kRegRead:
        sw.registers().read(op.target, op.index);  // throws on bad reg/index
        return std::nullopt;
    }
  } catch (const UserError& e) {
    return std::string(e.what());
  }
  return "unreachable op kind";
}

telemetry::HistogramOptions batch_ops_histogram() {
  telemetry::HistogramOptions opts;
  opts.first_bucket = 1.0;
  opts.growth = 2.0;
  opts.buckets = 10;
  return opts;
}

telemetry::HistogramOptions batch_latency_histogram() {
  telemetry::HistogramOptions opts;
  opts.first_bucket = 256.0;  // ns
  return opts;
}

}  // namespace

AsyncDriver::AsyncDriver(Driver& drv, AsyncDriverOptions opts)
    : drv_(&drv), opts_(opts) {
  expects(opts_.pipeline_depth >= 1,
          "AsyncDriver: pipeline_depth must be >= 1");
  auto& tel = drv.target().loop().telemetry();
  sinks_.sw = &drv.target();
  sinks_.prov = &tel.provenance();
  sinks_.batches = &tel.metrics().counter("driver.async.batches");
  sinks_.ops = &tel.metrics().counter("driver.async.ops");
  sinks_.aborted = &tel.metrics().counter("driver.async.aborted_batches");
  sinks_.batch_ops =
      &tel.metrics().histogram("driver.async.batch_ops", batch_ops_histogram());
  sinks_.batch_ns = &tel.metrics().histogram("driver.async.batch_ns",
                                             batch_latency_histogram());
  inflight_gauge_ = &tel.metrics().gauge("driver.async.inflight");
}

BatchId AsyncDriver::submit(BatchBuilder batch, SubmitOptions sopts) {
  expects(!batch.empty(), "AsyncDriver::submit: empty batch");
  const CostModel& costs = drv_->costs();
  sim::EventLoop& loop = drv_->target().loop();

  auto rec = std::make_shared<InFlight>();
  rec->label = sopts.label;
  rec->ops = std::move(batch).take();
  rec->c.id = static_cast<BatchId>(completions_.size()) + 1;
  rec->c.reaction_id = sopts.reaction_id;
  rec->c.submitted = loop.now();
  rec->c.results.resize(rec->ops.size());
  for (std::size_t i = 0; i < rec->ops.size(); ++i) {
    rec->c.results[i].kind = rec->ops[i].kind;
  }

  // Descriptor-ring gating: at most pipeline_depth transfers outstanding.
  Time ring_gate = 0;
  if (completions_.size() >= opts_.pipeline_depth) {
    ring_gate = completions_[completions_.size() - opts_.pipeline_depth];
  }

  if (drv_->options().enable_batching) {
    Duration prep = costs.batch_overhead;
    Duration dma = costs.pcie_rtt;
    for (const auto& op : rec->ops) {
      const Duration solo = drv_->solo_cost(op);
      prep += costs.batch_prep(solo);
      dma += costs.batch_dma(solo);
    }
    const Time prep_start =
        std::max(std::max(loop.now(), prep_free_), ring_gate);
    rec->c.prep_start = prep_start;
    rec->c.dma_start = prep_start + prep;
    prep_free_ = rec->c.dma_start;
    // The DMA holds the wire for its whole duration (no critical split: a
    // streamed transfer is exclusive occupancy, unlike a solo op's mostly
    // thread-local cost).
    rec->c.completed = drv_->channel().submit_at(
        rec->c.dma_start, dma,
        [s = sinks_, rec] { finish_batched(s, rec); });
  } else {
    // Ablation degrade: one transfer per op — full solo prep, its own round
    // trip on the wire, per-op apply (no cross-op atomicity).
    Time completed = 0;
    Time prep_cursor = std::max(std::max(loop.now(), prep_free_), ring_gate);
    for (std::size_t i = 0; i < rec->ops.size(); ++i) {
      const Duration solo = drv_->solo_cost(rec->ops[i]);
      const Time prep_end = prep_cursor + (solo - costs.pcie_rtt);
      if (i == 0) rec->c.prep_start = prep_cursor;
      completed = drv_->channel().submit_at(
          prep_end, costs.pcie_rtt,
          [s = sinks_, rec, i] { finish_single(s, rec, i); });
      if (i == 0) rec->c.dma_start = prep_end;
      prep_cursor = prep_end;
    }
    prep_free_ = prep_cursor;
    rec->c.completed = completed;
  }

  completions_.push_back(rec->c.completed);
  queue_.push_back(rec);
  inflight_gauge_->set(static_cast<double>(queue_.size()));
  return rec->c.id;
}

void AsyncDriver::finish_batched(const Sinks& s,
                                 const std::shared_ptr<InFlight>& rec) {
  sim::Switch& sw = *s.sw;
  telemetry::ProvenanceContext::ScopedAttribution attr(*s.prov,
                                                       rec->c.reaction_id);
  // Phase 1: validate every op against the state the batch would produce.
  std::unordered_map<std::string, std::int64_t> occupancy;
  std::size_t bad = rec->ops.size();
  for (std::size_t i = 0; i < rec->ops.size() && bad == rec->ops.size(); ++i) {
    if (auto err = validate_op(sw, rec->ops[i], occupancy)) {
      bad = i;
      rec->c.results[i].ok = false;
      rec->c.results[i].error = *err;
    }
  }
  if (bad != rec->ops.size()) {
    // Phase 2a: abort — no op applies; the others carry the abort marker.
    rec->c.ok = false;
    for (std::size_t i = 0; i < rec->ops.size(); ++i) {
      if (i == bad) continue;
      rec->c.results[i].ok = false;
      rec->c.results[i].error =
          "aborted: op " + std::to_string(bad) + " failed validation";
    }
    s.aborted->add();
  } else {
    // Phase 2b: apply, builder order, all at this completion instant.
    for (std::size_t i = 0; i < rec->ops.size(); ++i) {
      try {
        Driver::apply_op(sw, rec->ops[i], rec->c.results[i]);
      } catch (const UserError& e) {
        rec->c.results[i].ok = false;
        rec->c.results[i].error = e.what();
        rec->c.ok = false;
      }
    }
  }
  finalize(s, rec, sw.loop().now());
}

void AsyncDriver::finish_single(const Sinks& s,
                                const std::shared_ptr<InFlight>& rec,
                                std::size_t i) {
  telemetry::ProvenanceContext::ScopedAttribution attr(*s.prov,
                                                       rec->c.reaction_id);
  try {
    Driver::apply_op(*s.sw, rec->ops[i], rec->c.results[i]);
  } catch (const UserError& e) {
    rec->c.results[i].ok = false;
    rec->c.results[i].error = e.what();
    rec->c.ok = false;
  }
  if (++rec->applied == rec->ops.size()) {
    finalize(s, rec, s.sw->loop().now());
  }
}

void AsyncDriver::finalize(const Sinks& s, const std::shared_ptr<InFlight>& rec,
                           Time now) {
  rec->done = true;
  s.batches->add();
  s.ops->add(rec->ops.size());
  s.batch_ops->record(static_cast<double>(rec->ops.size()));
  s.batch_ns->record(static_cast<double>(now - rec->c.submitted));
  s.prov->on_driver_op_for(rec->c.reaction_id, rec->label,
                           "batch=" + std::to_string(rec->c.id) +
                               " ops=" + std::to_string(rec->ops.size()) +
                               (rec->c.ok ? "" : " FAILED"),
                           rec->c.submitted, rec->c.completed);
}

Time AsyncDriver::completion_time(BatchId id) const {
  expects(id >= 1 && id <= completions_.size(),
          "AsyncDriver::completion_time: unknown batch id");
  return completions_[id - 1];
}

std::optional<BatchCompletion> AsyncDriver::try_reap() {
  if (!ready()) return std::nullopt;
  auto rec = queue_.front();
  queue_.pop_front();
  inflight_gauge_->set(static_cast<double>(queue_.size()));
  return std::move(rec->c);
}

BatchCompletion AsyncDriver::reap() {
  expects(!queue_.empty(), "AsyncDriver::reap: nothing in flight");
  auto rec = queue_.front();
  if (!rec->done) {
    drv_->target().loop().run_until(rec->c.completed);
  }
  expects(rec->done, "AsyncDriver::reap: completion event did not fire");
  queue_.pop_front();
  inflight_gauge_->set(static_cast<double>(queue_.size()));
  return std::move(rec->c);
}

std::vector<BatchCompletion> AsyncDriver::reap_all() {
  std::vector<BatchCompletion> out;
  out.reserve(queue_.size());
  while (!queue_.empty()) out.push_back(reap());
  return out;
}

}  // namespace mantis::driver
