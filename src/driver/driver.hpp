// The control-plane driver: the API the Mantis agent (and legacy control
// planes) use to touch the ASIC. Wraps the simulated switch's raw surface
// with the latency model, the serialized channel, request batching, and the
// paper's prologue-time memoization of repeated operations (§6–7).
//
// Two calling styles:
//  * Synchronous (the Mantis agent): the call advances virtual time to the
//    op's completion — packets and other actors keep running in between —
//    then returns the result. This models a CPU thread blocked on the driver.
//  * Asynchronous (legacy clients): submit with a completion callback.
//
// Every table and register op (driver/batch.hpp) is priced by solo_cost and
// applied by apply_op, whether it runs as a per-op call, inside a sync
// run_batch, or in an AsyncDriver batch (driver/async).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "driver/batch.hpp"
#include "driver/channel.hpp"
#include "driver/cost_model.hpp"
#include "sim/switch.hpp"

namespace mantis::driver {

struct DriverOptions {
  bool enable_memoization = true;  ///< ablation: always-cold when false
  bool enable_batching = true;     ///< ablation: batches degrade to single ops
};

class Driver {
 public:
  Driver(sim::Switch& sw, DriverOptions opts = {});

  sim::Switch& target() { return *sw_; }
  const CostModel& costs() const { return costs_; }
  const DriverOptions& options() const { return opts_; }
  Channel& channel() { return channel_; }

  // ---------- synchronous API (Mantis agent) ----------

  /// Installs an entry; returns its handle. Virtual time advances to
  /// completion.
  sim::EntryHandle add_entry(const std::string& table, const p4::EntrySpec& spec);

  void modify_entry(const std::string& table, sim::EntryHandle h,
                    const std::string& action, std::vector<std::uint64_t> args);

  void delete_entry(const std::string& table, sim::EntryHandle h);

  void set_default(const std::string& table, const std::string& action,
                   std::vector<std::uint64_t> args);

  /// Reads one register cell.
  std::uint64_t read_register(const std::string& reg, std::uint32_t index);

  /// Reads a contiguous range [first, last] in one DMA (cheap per byte).
  std::vector<std::uint64_t> read_register_range(const std::string& reg,
                                                 std::uint32_t first,
                                                 std::uint32_t last);

  /// Reads a set of scattered packed words (the field-argument path: one
  /// PCIe word read per packed register). Returns values in request order.
  struct WordRef {
    std::string reg;
    std::uint32_t index = 0;
  };
  std::vector<std::uint64_t> read_packed_words(const std::vector<WordRef>& words);

  void write_register(const std::string& reg, std::uint32_t index,
                      std::uint64_t value);

  /// Reads a P4 counter cell (same latency class as a register word).
  std::uint64_t read_counter(const std::string& counter, std::uint32_t index);

  // ---------- batched synchronous updates ----------

  /// Runs `batch` as one channel occupancy costing batch_overhead + Σ(solo −
  /// pcie_rtt) + one shared pcie_rtt; every op applies at the completion
  /// instant, in batch order. With enable_batching=false each op is instead
  /// its own sync transfer at its solo cost. Returns one result per op, in
  /// batch order. Used for the prepare and mirror steps of the update
  /// protocol.
  std::vector<OpResult> run_batch(BatchBuilder batch);

  // ---------- the one op -> cost and op -> effect mapping ----------

  /// Synchronous cost of `op` on its own. Touches the memo as the op does, so
  /// every path calls it once per op, in op order.
  Duration solo_cost(const Op& op);
  /// Applies `op` to `sw` and fills `res`'s payload (handle, value). Throws
  /// UserError on a stale handle, unknown table or register, or full table.
  static void apply_op(sim::Switch& sw, Op& op, OpResult& res);

  // ---------- asynchronous API (legacy control planes) ----------

  /// Submits a table modification; `done(latency)` fires at completion with
  /// the op's total latency including queueing (Fig 12's measured quantity).
  void async_modify_entry(const std::string& table, sim::EntryHandle h,
                          const std::string& action,
                          std::vector<std::uint64_t> args,
                          std::function<void(Duration)> done);

  /// Submits a register range read; `done(values, latency)` fires at
  /// completion. Used by clients that live on the event loop (a synchronous
  /// read from inside an event callback would nest run_until and distort
  /// other actors' timing).
  void async_read_register_range(
      const std::string& reg, std::uint32_t first, std::uint32_t last,
      std::function<void(std::vector<std::uint64_t>, Duration)> done);

  // ---------- memoization ----------

  /// Pre-warms the driver metadata for a (table, action) pair so the first
  /// dialogue-time touch is already cheap. Called from the agent prologue.
  void memoize(const std::string& table, const std::string& action);

  std::uint64_t sync_ops() const { return sync_ops_; }

 private:
  sim::Switch* sw_;
  DriverOptions opts_;
  CostModel costs_;
  Channel channel_;
  std::unordered_set<std::string> memo_;
  std::uint64_t sync_ops_ = 0;

  // Cached telemetry sinks (owned by the loop's registry / bundle).
  telemetry::Counter* sync_ops_ctr_;
  telemetry::Histogram* legacy_latency_hist_;
  telemetry::ProvenanceContext* prov_;

  bool memoized(const std::string& table, const std::string& action);
  /// Submits a synchronous op: occupies the channel, runs the loop to the
  /// completion instant, performs `effect` there, and returns. `op` (a
  /// static string literal) and `detail` feed the provenance layer.
  void sync_submit(Duration cost, const char* op, const std::string& detail,
                   const std::function<void()>& effect);
  /// Runs one op as its own sync transfer at its solo cost.
  OpResult run_op(Op op);
};

}  // namespace mantis::driver
