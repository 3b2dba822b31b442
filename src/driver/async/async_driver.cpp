#include "driver/async/async_driver.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/provenance.hpp"
#include "util/check.hpp"

namespace mantis::driver {

namespace {

/// What the ops validated so far do to one table, so that each op is
/// checked against the state the batch itself produces.
struct TableDelta {
  const sim::TableState* table = nullptr;
  std::int64_t occupancy = 0;              ///< net entry-count change
  std::vector<sim::EntryHandle> deleted;  ///< handles the batch deletes
  /// All-exact tables: the keys the batch adds.
  std::vector<std::vector<p4::MatchValue>> added;

  bool was_deleted(sim::EntryHandle h) const {
    return std::find(deleted.begin(), deleted.end(), h) != deleted.end();
  }
};
/// One delta per table the batch touches (batches touch few tables).
using BatchDeltas = std::vector<TableDelta>;

TableDelta& delta_of(BatchDeltas& deltas, const sim::TableState& table) {
  for (auto& d : deltas) {
    if (d.table == &table) return d;
  }
  TableDelta& added = deltas.emplace_back();
  added.table = &table;
  return added;
}

/// A live handle the batch has not deleted, or the error to report.
std::optional<std::string> check_handle(const sim::TableState& table,
                                        const TableDelta& delta,
                                        sim::EntryHandle h) {
  if (!table.contains(h) || delta.was_deleted(h)) {
    return "table " + table.name() + ": bad handle";
  }
  return std::nullopt;
}

/// Exact keys are equal when their values are (masks are full).
bool same_values(const std::vector<p4::MatchValue>& a,
                 const std::vector<p4::MatchValue>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const auto& x, const auto& y) { return x.value == y.value; });
}

/// One record per op validation failure; nullopt = op is applicable. Runs
/// the checks Driver::apply_op would (TableState::check_spec and
/// check_action), so a batch that validates applies whole.
std::optional<std::string> validate_op(sim::Switch& sw, const Op& op,
                                       BatchDeltas& deltas) {
  try {
    switch (op.kind) {
      case Op::Kind::kAdd: {
        const auto& table = sw.table(op.target);
        table.check_spec(op.spec);
        auto& delta = delta_of(deltas, table);
        if (static_cast<std::int64_t>(table.entry_count()) + delta.occupancy >=
            static_cast<std::int64_t>(table.capacity())) {
          return "table full: " + op.target;
        }
        if (table.all_exact()) {
          // A key the batch deleted earlier is free again.
          const auto live = table.find_exact(op.spec.key);
          if ((live && !delta.was_deleted(*live)) ||
              std::any_of(delta.added.begin(), delta.added.end(),
                          [&](const auto& k) { return same_values(k, op.spec.key); })) {
            return "table " + op.target + ": duplicate exact key";
          }
          delta.added.push_back(op.spec.key);
        }
        ++delta.occupancy;
        return std::nullopt;
      }
      case Op::Kind::kMod: {
        const auto& table = sw.table(op.target);
        if (auto err = check_handle(table, delta_of(deltas, table), op.handle)) {
          return err;
        }
        table.check_action(op.action, op.args.size());
        return std::nullopt;
      }
      case Op::Kind::kDel: {
        const auto& table = sw.table(op.target);
        auto& delta = delta_of(deltas, table);
        if (auto err = check_handle(table, delta, op.handle)) return err;
        delta.deleted.push_back(op.handle);
        --delta.occupancy;
        return std::nullopt;
      }
      case Op::Kind::kSetDefault:
        sw.table(op.target).check_action(op.action, op.args.size());
        return std::nullopt;
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
  BatchDeltas deltas;
  std::size_t bad = rec->ops.size();
  for (std::size_t i = 0; i < rec->ops.size() && bad == rec->ops.size(); ++i) {
    if (auto err = validate_op(sw, rec->ops[i], deltas)) {
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
  s.batch_ops->record(static_cast<std::uint64_t>(rec->ops.size()));
  s.batch_ns->record(static_cast<std::uint64_t>(now - rec->c.submitted));
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
