// The Mantis control-plane agent (paper §6).
//
// Runs the prologue (initial entries, memoization, user init) and then the
// dialogue loop, each iteration of which is:
//
//   updateTable(memo, "p4r_init_", {measure_ver : mv ^ 1});
//   read_measurements(memo, mv); mv ^= 1;
//   run_user_reaction(memo, helper_state, vv ^ 1);
//   updateTable(memo, "p4r_init_", {config_ver : vv ^ 1});
//   fill_shadow_tables(memo, vv); vv ^= 1;
//
// Reactions can be native C++ callables or interpreted bodies extracted from
// the .p4r source (the reproduction's analogue of the dlopen'd .so, including
// hot swap between iterations). All latencies are virtual time, so the
// iteration granularity is directly comparable to the paper's Figures 10-12.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agent/handles.hpp"
#include "agent/measurement.hpp"
#include "agent/update_protocol.hpp"
#include "compile/compiler.hpp"
#include "driver/async/async_driver.hpp"
#include "driver/driver.hpp"
#include "p4r/creact/cparser.hpp"
#include "p4r/creact/interp.hpp"
#include "telemetry/telemetry.hpp"
#include "util/stats.hpp"

namespace mantis::agent {

struct AgentOptions {
  /// Virtual `nanosleep` between iterations; trades reaction time for CPU
  /// utilization (paper Fig 11). 0 = busy loop.
  Duration pacing_sleep = 0;
  /// Ablation: disable the timestamp-guarded register cache (§5.2).
  bool register_cache = true;
  /// Flip vv (and refresh the master entry) every iteration, as in the §6
  /// pseudocode, even when the reaction changed nothing. Setting this false
  /// skips commit+mirror on clean iterations (latency ablation).
  bool commit_every_iteration = true;
  /// Reaction-latency SLO (virtual ns of busy time per dialogue iteration);
  /// exceeding it triggers a flight-recorder dump. 0 = disabled.
  Duration reaction_slo = 0;
  /// Push via the batched async driver runtime (src/driver/async): the
  /// prepare, commit, and mirror updates become pipelined batches; the
  /// agent blocks only on the commit (the serializability point) and reaps
  /// the mirror at the next iteration's start, so shadow maintenance
  /// overlaps the next poll + compute.
  bool async_push = false;
  /// Transfers in flight on the driver channel when async_push is on.
  std::size_t async_pipeline_depth = 2;
};

class Agent;

/// The interface reactions use: polled parameters, malleable accessors, and
/// user-keyspace table operations. Table/scalar writes made inside a reaction
/// are buffered and committed through the serializable update protocol;
/// outside a reaction they apply immediately (management plane).
class ReactionContext {
 public:
  // ---- polled parameters ----
  bool has_arg(const std::string& name) const;
  std::int64_t arg(const std::string& name) const;
  std::int64_t arg(const std::string& name, std::uint32_t index) const;
  std::uint32_t arg_lo(const std::string& name) const;
  std::uint32_t arg_hi(const std::string& name) const;

  // ---- malleable scalars (values and field selectors) ----
  std::uint64_t get(const std::string& name) const;
  void set(const std::string& name, std::uint64_t value);
  /// Alias for set() on a malleable field: shifts the reference to alts[i].
  void shift_field(const std::string& name, std::size_t alt_index);

  // ---- malleable (and plain) tables, user-level key space ----
  UserEntryId add_entry(const std::string& table, const p4::EntrySpec& user);
  void mod_entry(const std::string& table, UserEntryId id,
                 const std::string& action, std::vector<std::uint64_t> args);
  void del_entry(const std::string& table, UserEntryId id);
  std::optional<UserEntryId> find_entry(const std::string& table,
                                        const std::vector<p4::MatchValue>& key) const;
  std::size_t entry_count(const std::string& table) const;

  Time now() const;

 private:
  friend class Agent;
  ReactionContext(Agent& agent, const p4r::creact::PolledParams* params)
      : agent_(&agent), params_(params) {}
  Agent* agent_;
  const p4r::creact::PolledParams* params_;  ///< null outside reactions
};

class Agent {
 public:
  /// `artifacts` must outlive the agent.
  Agent(driver::Driver& drv, const compile::Artifacts& artifacts,
        AgentOptions opts = {});

  using NativeFn = std::function<void(ReactionContext&)>;

  /// Replaces the interpreted body of `name` with a native callable
  /// (cost 0 = use options default). Also usable mid-run as the hot-swap
  /// mechanism: takes effect at the next iteration, like the paper's
  /// signal-triggered .so reload. `reinit_statics` clears interpreter statics
  /// when swapping back to the interpreted body.
  void set_native_reaction(const std::string& name, NativeFn fn,
                           Duration cost = 0);
  void swap_to_interpreted(const std::string& name, bool reinit_statics);

  /// Re-executes the prologue's user initialization (the paper lets a
  /// hot-swapped reaction request this). Only valid after run_prologue.
  void rerun_user_init();

  /// Prologue: installs generated static entries and overflow-init entries,
  /// memoizes driver state, then runs `user_init` (immediate mode).
  void run_prologue(const std::function<void(ReactionContext&)>& user_init = {});

  /// One full dialogue iteration (all registered reactions).
  void dialogue_iteration();
  void run_dialogue(std::size_t iterations);
  void run_dialogue_until(Time t);

  // ---- management-plane (immediate) access ----
  ReactionContext management_context() { return ReactionContext(*this, nullptr); }
  void set_scalar(const std::string& name, std::uint64_t value);  ///< immediate
  std::uint64_t scalar(const std::string& name) const;

  // ---- introspection ----
  // Latency accounting lives in the stack-wide telemetry::MetricsRegistry
  // (metric names in docs/TELEMETRY.md); these accessors are thin views over
  // the registry-owned metrics so existing callers keep working.
  int vv() const { return vv_; }
  int mv() const { return mv_; }
  std::uint64_t iterations() const { return iters_ctr_->value(); }
  Duration busy_time() const { return static_cast<Duration>(busy_ctr_->value()); }
  /// Per-iteration wall (virtual) latencies, excluding pacing sleep.
  const Samples& iteration_latencies() const { return iter_hist_->raw(); }

  /// Phase breakdown of the most recent iteration (the terms of the §8.1
  /// cost equation as actually incurred).
  struct IterationBreakdown {
    Duration mv_flip = 0;
    Duration measure_and_react = 0;  ///< per-reaction poll + body, summed
    Duration update = 0;             ///< prepare + commit + mirror
    Duration total() const { return mv_flip + measure_and_react + update; }
  };
  const IterationBreakdown& last_breakdown() const { return last_breakdown_; }

  /// Receives values from interpreted reactions' `log(v)` builtin.
  using LogHook = std::function<void(const std::string& reaction, std::int64_t)>;
  void set_log_hook(LogHook hook) { log_hook_ = std::move(hook); }
  const compile::Artifacts& artifacts() const { return *art_; }
  driver::Driver& drv() { return *drv_; }

  /// The batched async runtime, when AgentOptions::async_push is on
  /// (nullptr otherwise). Exposed for benches and tests to inspect.
  driver::AsyncDriver* async_driver() { return adrv_.get(); }
  /// Reaps every in-flight async push batch (typically the last iteration's
  /// mirror) and absorbs its handles. No-op in sync mode; call before
  /// comparing dataplane state or tearing the stack down mid-pipeline.
  void drain_pending_pushes();

 private:
  friend class ReactionContext;
  class InterpEnv;

  driver::Driver* drv_;
  const compile::Artifacts* art_;
  AgentOptions opts_;
  Measurement measure_;
  std::map<std::string, TableRuntime> tables_;
  UpdateProtocol protocol_;
  std::unique_ptr<driver::AsyncDriver> adrv_;  ///< set when async_push

  /// Async push batches submitted but not yet reaped, submit order. The
  /// staged slots hold where the batch's add handles go at absorb time.
  struct PendingAsync {
    driver::BatchId id = 0;
    UpdateProtocol::StagedCopy staged;
  };
  std::vector<PendingAsync> async_pending_;

  std::map<std::string, std::uint64_t> scalars_;
  std::map<std::string, std::uint64_t> committed_scalars_;
  int vv_ = 0;
  int mv_ = 0;
  bool prologue_done_ = false;

  /// handles[vv] of each overflow init table's entries ([0] unused = master).
  std::vector<std::array<sim::EntryHandle, 2>> init_handles_;

  struct ReactionRt {
    const compile::ReactionInfo* info = nullptr;
    NativeFn native;
    Duration native_cost = 0;
    /// Heap-allocated: the Interp holds a pointer to the body, which must
    /// stay stable when ReactionRt moves.
    std::unique_ptr<p4r::creact::CBody> body;
    std::unique_ptr<p4r::creact::Interp> interp;
    bool use_native = false;
  };
  std::vector<ReactionRt> reactions_;

  std::vector<PendingOp> pending_;
  bool in_reaction_ = false;

  // Cached telemetry sinks (owned by the loop's registry; see
  // docs/TELEMETRY.md for the naming scheme).
  telemetry::Telemetry* tel_;
  telemetry::ProvenanceContext* prov_;
  telemetry::FlightRecorder* rec_;
  /// Poll/compute accumulators for the current iteration's provenance
  /// breakdown (summed across reactions by run_one_reaction).
  Duration iter_poll_ = 0;
  Duration iter_compute_ = 0;
  telemetry::Counter* iters_ctr_;
  telemetry::Counter* busy_ctr_;
  telemetry::Histogram* iter_hist_;  ///< keep_raw: iteration_latencies() view
  telemetry::Histogram* phase_mv_flip_;
  telemetry::Histogram* phase_measure_;
  telemetry::Histogram* phase_react_;
  telemetry::Histogram* phase_update_;

  LogHook log_hook_;
  IterationBreakdown last_breakdown_;
  std::function<void(ReactionContext&)> user_init_;

  sim::EventLoop& loop();
  std::vector<std::uint64_t> master_args(int vv, int mv) const;
  std::vector<std::uint64_t> init_args(std::size_t table_idx,
                                       const std::map<std::string, std::uint64_t>&
                                           scalars) const;
  ReactionRt* find_reaction(const std::string& name);
  /// Logs kMalleable flight events for scalars whose value differs from the
  /// last committed state (call just before committed_scalars_ = scalars_).
  void record_scalar_commits();
  /// Appends to `out` a modify of copy vv, for each vv in `vvs`, of every
  /// overflow init entry whose arguments changed since the last commit.
  driver::BatchBuilder dirty_init_rows(std::initializer_list<int> vvs,
                                       driver::BatchBuilder out = {}) const;
  void commit_scalars_immediate();
  void run_one_reaction(ReactionRt& rt);
  void apply_updates();  ///< prepare + commit + mirror for buffered state
  void apply_updates_async(const std::vector<PendingOp>& ops);
  /// Pops one reaped completion's bookkeeping (must be the oldest pending).
  void absorb_async(const driver::BatchCompletion& c);
};

}  // namespace mantis::agent
