#include "driver/driver.hpp"

namespace mantis::driver {

namespace {

/// Provenance label of an op run as its own sync transfer.
const char* sync_label(Op::Kind kind) {
  switch (kind) {
    case Op::Kind::kAdd: return "driver.add_entry";
    case Op::Kind::kMod: return "driver.modify_entry";
    case Op::Kind::kDel: return "driver.delete_entry";
    case Op::Kind::kSetDefault: return "driver.set_default";
    case Op::Kind::kRegWrite: return "driver.write_register";
    case Op::Kind::kRegRead: return "driver.read_register";
  }
  return "driver.op";
}

}  // namespace

Driver::Driver(sim::Switch& sw, DriverOptions opts)
    : sw_(&sw), opts_(opts), channel_(sw.loop()) {
  auto& tel = sw.loop().telemetry();
  sync_ops_ctr_ = &tel.metrics().counter("driver.sync_ops");
  prov_ = &tel.provenance();
  telemetry::HistogramOptions lat;
  lat.first_bucket = 256;  // ns; legacy op latencies are ~1..50us
  legacy_latency_hist_ =
      &tel.metrics().histogram("driver.legacy.latency_ns", lat);
}

bool Driver::memoized(const std::string& table, const std::string& action) {
  if (!opts_.enable_memoization) return false;
  const std::string key = table + "\x1f" + action;
  // First touch establishes the memo (the prologue normally does this
  // explicitly; dialogue-time first touches pay the cold cost once).
  return !memo_.insert(key).second;
}

void Driver::memoize(const std::string& table, const std::string& action) {
  if (!opts_.enable_memoization) return;
  memo_.insert(table + "\x1f" + action);
}

void Driver::sync_submit(Duration cost, const char* op,
                         const std::string& detail,
                         const std::function<void()>& effect) {
  ++sync_ops_;
  sync_ops_ctr_->add();
  const Time submitted = sw_->loop().now();
  const Time completion =
      channel_.submit(cost, nullptr, costs_.critical(cost));
  sw_->loop().run_until(completion);
  effect();
  // After the effect so table mutations performed inside it are already
  // stamped with this reaction's id when the op is logged.
  prov_->on_driver_op(op, detail, submitted, completion);
}

Duration Driver::solo_cost(const Op& op) {
  switch (op.kind) {
    case Op::Kind::kAdd:
      return costs_.table_add(memoized(op.target, op.spec.action));
    case Op::Kind::kMod:
      return costs_.table_mod(memoized(op.target, op.action));
    case Op::Kind::kDel:
      return costs_.table_del(memoized(op.target, "\x1f""del"));
    case Op::Kind::kSetDefault:
      return costs_.set_default();
    case Op::Kind::kRegWrite:
      return costs_.register_write();
    case Op::Kind::kRegRead:
      return costs_.packed_words_read(1);
  }
  return costs_.pcie_rtt;
}

void Driver::apply_op(sim::Switch& sw, Op& op, OpResult& res) {
  switch (op.kind) {
    case Op::Kind::kAdd:
      res.handle = sw.table(op.target).add_entry(op.spec);
      break;
    case Op::Kind::kMod:
      sw.table(op.target).modify_entry(op.handle, op.action,
                                       std::move(op.args));
      break;
    case Op::Kind::kDel:
      sw.table(op.target).delete_entry(op.handle);
      break;
    case Op::Kind::kSetDefault:
      sw.table(op.target).set_default(op.action, std::move(op.args));
      break;
    case Op::Kind::kRegWrite:
      sw.registers().write(op.target, op.index, op.value);
      break;
    case Op::Kind::kRegRead:
      res.value = sw.registers().read(op.target, op.index);
      break;
  }
}

OpResult Driver::run_op(Op op) {
  const Duration cost = solo_cost(op);
  OpResult res;
  res.kind = op.kind;
  sync_submit(cost, sync_label(op.kind), op.target,
              [&] { apply_op(*sw_, op, res); });
  return res;
}

sim::EntryHandle Driver::add_entry(const std::string& table,
                                   const p4::EntrySpec& spec) {
  return run_op(Op::add(table, spec)).handle;
}

void Driver::modify_entry(const std::string& table, sim::EntryHandle h,
                          const std::string& action,
                          std::vector<std::uint64_t> args) {
  run_op(Op::modify(table, h, action, std::move(args)));
}

void Driver::delete_entry(const std::string& table, sim::EntryHandle h) {
  run_op(Op::erase(table, h));
}

void Driver::set_default(const std::string& table, const std::string& action,
                         std::vector<std::uint64_t> args) {
  run_op(Op::set_default(table, action, std::move(args)));
}

std::uint64_t Driver::read_register(const std::string& reg, std::uint32_t index) {
  return run_op(Op::reg_read(reg, index)).value;
}

std::vector<std::uint64_t> Driver::read_register_range(const std::string& reg,
                                                       std::uint32_t first,
                                                       std::uint32_t last) {
  expects(first <= last, "Driver::read_register_range: first > last");
  const auto width_bytes = bits_to_bytes(sw_->registers().width(reg));
  const std::size_t bytes = static_cast<std::size_t>(last - first + 1) * width_bytes;
  std::vector<std::uint64_t> values;
  sync_submit(costs_.range_read(bytes), "driver.read_register_range",
              reg,
              [&] { values = sw_->registers().read_range(reg, first, last); });
  return values;
}

std::vector<std::uint64_t> Driver::read_packed_words(
    const std::vector<WordRef>& words) {
  std::vector<std::uint64_t> values;
  sync_submit(costs_.packed_words_read(words.size()),
              "driver.read_packed_words",
              words.empty() ? std::string() : words.front().reg, [&] {
    values.reserve(words.size());
    for (const auto& w : words) {
      values.push_back(sw_->registers().read(w.reg, w.index));
    }
  });
  return values;
}

void Driver::write_register(const std::string& reg, std::uint32_t index,
                            std::uint64_t value) {
  run_op(Op::reg_write(reg, index, value));
}

std::uint64_t Driver::read_counter(const std::string& counter,
                                   std::uint32_t index) {
  std::uint64_t value = 0;
  sync_submit(costs_.packed_words_read(1), "driver.read_counter",
              counter,
              [&] { value = sw_->registers().counter_value(counter, index); });
  return value;
}

// ---------------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------------

std::vector<OpResult> Driver::run_batch(BatchBuilder batch) {
  std::vector<Op> ops = std::move(batch).take();
  std::vector<OpResult> results;
  results.reserve(ops.size());
  if (!opts_.enable_batching) {
    // Ablation: one transfer per op, each priced just before it runs.
    for (auto& op : ops) results.push_back(run_op(std::move(op)));
    return results;
  }
  if (ops.empty()) return results;

  Duration cost = costs_.batch_overhead;
  for (const auto& op : ops) cost += solo_cost(op) - costs_.pcie_rtt;
  cost += costs_.pcie_rtt;  // the batch pays one shared round trip
  for (const auto& op : ops) results.emplace_back().kind = op.kind;
  sync_submit(cost, "driver.batch", "ops=" + std::to_string(ops.size()), [&] {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      apply_op(*sw_, ops[i], results[i]);
    }
  });
  return results;
}

// ---------------------------------------------------------------------------
// Async (legacy clients)
// ---------------------------------------------------------------------------

void Driver::async_modify_entry(const std::string& table, sim::EntryHandle h,
                                const std::string& action,
                                std::vector<std::uint64_t> args,
                                std::function<void(Duration)> done) {
  const Time submitted = sw_->loop().now();
  Op op = Op::modify(table, h, action, std::move(args));
  const Duration cost = solo_cost(op);
  channel_.submit(
      cost,
      [this, op = std::move(op), submitted, done = std::move(done)]() mutable {
        OpResult res;
        apply_op(*sw_, op, res);
        const Duration latency = sw_->loop().now() - submitted;
        legacy_latency_hist_->record(static_cast<std::uint64_t>(latency));
        // Async completions can land inside another agent's run_until wait;
        // attributing them to that reaction would be wrong, so log with
        // reaction_id 0 instead of prov_->on_driver_op.
        auto& rec = sw_->loop().telemetry().recorder();
        if (rec.enabled()) {
          rec.record(sw_->loop().now(), telemetry::FlightEvent::Kind::kDriverOp,
                     0, "legacy.modify_entry", op.target, latency);
        }
#if MANTIS_TELEMETRY_ENABLED
        sw_->loop().telemetry().tracer().complete(
            "legacy.modify_entry", "driver", telemetry::Track::kLegacy,
            submitted, sw_->loop().now());
#endif
        if (done) done(latency);
      },
      costs_.critical(cost));
}

void Driver::async_read_register_range(
    const std::string& reg, std::uint32_t first, std::uint32_t last,
    std::function<void(std::vector<std::uint64_t>, Duration)> done) {
  expects(first <= last, "Driver::async_read_register_range: first > last");
  const Time submitted = sw_->loop().now();
  const auto width_bytes = bits_to_bytes(sw_->registers().width(reg));
  const std::size_t bytes = static_cast<std::size_t>(last - first + 1) * width_bytes;
  const Duration cost = costs_.range_read(bytes);
  channel_.submit(
      cost,
      [this, reg, first, last, submitted, done = std::move(done)] {
        auto values = sw_->registers().read_range(reg, first, last);
        auto& rec = sw_->loop().telemetry().recorder();
        if (rec.enabled()) {
          rec.record(sw_->loop().now(), telemetry::FlightEvent::Kind::kDriverOp,
                     0, "legacy.read_register_range", reg,
                     sw_->loop().now() - submitted);
        }
        if (done) {
          done(std::move(values), sw_->loop().now() - submitted);
        }
      },
      costs_.critical(cost));
}

}  // namespace mantis::driver
