#include "agent/agent.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mantis::agent {

namespace {
constexpr std::uint64_t kFullMask = ~std::uint64_t{0};
/// Virtual CPU cost charged for a native reaction body that names none.
constexpr Duration kNativeReactionCost = 1000;
/// Virtual CPU cost per interpreted reaction step.
constexpr Duration kInterpStepCost = 2;
}

// ---------------------------------------------------------------------------
// ReactionContext
// ---------------------------------------------------------------------------

bool ReactionContext::has_arg(const std::string& name) const {
  return params_ != nullptr && (params_->scalars.count(name) != 0 ||
                                params_->arrays.count(name) != 0);
}

std::int64_t ReactionContext::arg(const std::string& name) const {
  expects(params_ != nullptr, "arg() outside a reaction");
  auto it = params_->scalars.find(name);
  if (it == params_->scalars.end()) throw UserError("no scalar arg: " + name);
  return it->second;
}

std::int64_t ReactionContext::arg(const std::string& name,
                                  std::uint32_t index) const {
  expects(params_ != nullptr, "arg() outside a reaction");
  auto it = params_->arrays.find(name);
  if (it == params_->arrays.end()) throw UserError("no array arg: " + name);
  const auto& arr = it->second;
  if (index < arr.lo || index >= arr.lo + arr.values.size()) {
    throw UserError("arg " + name + ": index out of range");
  }
  return arr.values[index - arr.lo];
}

std::uint32_t ReactionContext::arg_lo(const std::string& name) const {
  expects(params_ != nullptr, "arg_lo() outside a reaction");
  auto it = params_->arrays.find(name);
  if (it == params_->arrays.end()) throw UserError("no array arg: " + name);
  return it->second.lo;
}

std::uint32_t ReactionContext::arg_hi(const std::string& name) const {
  expects(params_ != nullptr, "arg_hi() outside a reaction");
  auto it = params_->arrays.find(name);
  if (it == params_->arrays.end()) throw UserError("no array arg: " + name);
  return it->second.lo + static_cast<std::uint32_t>(it->second.values.size()) - 1;
}

std::uint64_t ReactionContext::get(const std::string& name) const {
  auto it = agent_->scalars_.find(name);
  if (it == agent_->scalars_.end()) throw UserError("no malleable scalar: " + name);
  return it->second;
}

void ReactionContext::set(const std::string& name, std::uint64_t value) {
  auto it = agent_->scalars_.find(name);
  if (it == agent_->scalars_.end()) throw UserError("no malleable scalar: " + name);
  const auto& slot = agent_->art_->bindings.scalars.at(name);
  if (slot.is_selector && value >= slot.alt_count) {
    throw UserError("malleable field " + name + ": alt index " +
                    std::to_string(value) + " out of range");
  }
  if ((value & mask_for_width(slot.width)) != value) {
    throw UserError("malleable " + name + ": value wider than " +
                    std::to_string(slot.width) + " bits");
  }
  it->second = value;
  if (!agent_->in_reaction_) agent_->commit_scalars_immediate();
}

void ReactionContext::shift_field(const std::string& name, std::size_t alt_index) {
  set(name, alt_index);
}

UserEntryId ReactionContext::add_entry(const std::string& table,
                                       const p4::EntrySpec& user) {
  auto it = agent_->tables_.find(table);
  if (it == agent_->tables_.end()) throw UserError("unknown user table: " + table);
  auto& rt = it->second;
  if (!agent_->in_reaction_ || !rt.info->malleable) {
    // Immediate mode touches concrete handles; a still-in-flight async
    // mirror may own some of them, so settle it first.
    agent_->drain_pending_pushes();
    return agent_->protocol_.immediate_add(table, user);
  }
  // Buffered: materialize the user entry now (so find_entry sees it), defer
  // the data-plane installs to prepare/mirror.
  const UserEntryId id = rt.next_id++;
  TableRuntime::UserEntry entry;
  entry.user_spec = user;
  rt.entries.emplace(id, std::move(entry));
  PendingOp op;
  op.kind = PendingOp::Kind::kAdd;
  op.table = table;
  op.id = id;
  op.user_spec = user;
  agent_->pending_.push_back(std::move(op));
  return id;
}

void ReactionContext::mod_entry(const std::string& table, UserEntryId id,
                                const std::string& action,
                                std::vector<std::uint64_t> args) {
  auto it = agent_->tables_.find(table);
  if (it == agent_->tables_.end()) throw UserError("unknown user table: " + table);
  auto& rt = it->second;
  if (!agent_->in_reaction_ || !rt.info->malleable) {
    agent_->drain_pending_pushes();
    agent_->protocol_.immediate_mod(table, id, action, std::move(args));
    return;
  }
  auto eit = rt.entries.find(id);
  if (eit == rt.entries.end()) throw UserError("mod_entry: bad entry id");
  if (eit->second.pending_delete) {
    throw UserError("mod_entry: entry deleted this iteration");
  }
  PendingOp op;
  op.kind = PendingOp::Kind::kMod;
  op.table = table;
  op.id = id;
  op.old_action = eit->second.user_spec.action;
  eit->second.user_spec.action = action;
  eit->second.user_spec.action_args = std::move(args);
  op.user_spec = eit->second.user_spec;
  agent_->pending_.push_back(std::move(op));
}

void ReactionContext::del_entry(const std::string& table, UserEntryId id) {
  auto it = agent_->tables_.find(table);
  if (it == agent_->tables_.end()) throw UserError("unknown user table: " + table);
  auto& rt = it->second;
  if (!agent_->in_reaction_ || !rt.info->malleable) {
    agent_->drain_pending_pushes();
    agent_->protocol_.immediate_del(table, id);
    return;
  }
  auto eit = rt.entries.find(id);
  if (eit == rt.entries.end()) throw UserError("del_entry: bad entry id");
  if (eit->second.pending_delete) {
    throw UserError("del_entry: entry already deleted this iteration");
  }
  eit->second.pending_delete = true;
  PendingOp op;
  op.kind = PendingOp::Kind::kDel;
  op.table = table;
  op.id = id;
  agent_->pending_.push_back(std::move(op));
}

std::optional<UserEntryId> ReactionContext::find_entry(
    const std::string& table, const std::vector<p4::MatchValue>& key) const {
  auto it = agent_->tables_.find(table);
  if (it == agent_->tables_.end()) throw UserError("unknown user table: " + table);
  return it->second.find_by_key(key);
}

std::size_t ReactionContext::entry_count(const std::string& table) const {
  auto it = agent_->tables_.find(table);
  if (it == agent_->tables_.end()) throw UserError("unknown user table: " + table);
  std::size_t n = 0;
  for (const auto& [id, entry] : it->second.entries) {
    if (!entry.pending_delete) ++n;
  }
  return n;
}

Time ReactionContext::now() const { return agent_->loop().now(); }

// ---------------------------------------------------------------------------
// InterpEnv: bridges the creact interpreter to the context
// ---------------------------------------------------------------------------

class Agent::InterpEnv : public p4r::creact::ReactionEnv {
 public:
  InterpEnv(ReactionContext& ctx, std::string reaction)
      : ctx_(&ctx), reaction_(std::move(reaction)) {}

  void log_value(p4r::creact::CValue v) override {
    if (ctx_->agent_->log_hook_) ctx_->agent_->log_hook_(reaction_, v);
  }

  p4r::creact::CValue mbl_get(const std::string& name) override {
    return static_cast<p4r::creact::CValue>(ctx_->get(name));
  }
  void mbl_set(const std::string& name, p4r::creact::CValue value) override {
    ctx_->set(name, static_cast<std::uint64_t>(value));
  }

  p4r::creact::CValue table_call(
      const std::string& table, const std::string& method,
      const std::vector<p4r::creact::TableCallArg>& args) override {
    Agent& agent = *ctx_->agent_;
    const auto& info = agent.art_->bindings.table(table);
    const std::size_t keys = info.original_read_count;

    auto key_from = [&](std::size_t first) {
      std::vector<p4::MatchValue> key;
      for (std::size_t i = 0; i < keys; ++i) {
        const auto& a = args.at(first + i);
        if (a.is_string) throw UserError(table + "." + method + ": key must be numeric");
        key.push_back(p4::MatchValue{static_cast<std::uint64_t>(a.num), kFullMask});
      }
      return key;
    };
    auto action_args_from = [&](std::size_t first) {
      std::vector<std::uint64_t> out;
      for (std::size_t i = first; i < args.size(); ++i) {
        if (args[i].is_string) {
          throw UserError(table + "." + method + ": unexpected string argument");
        }
        out.push_back(static_cast<std::uint64_t>(args[i].num));
      }
      return out;
    };
    auto action_name = [&](std::size_t idx) {
      if (idx >= args.size() || !args[idx].is_string) {
        throw UserError(table + "." + method + ": expected action name string");
      }
      return args[idx].str;
    };

    if (method == "addEntry") {
      // addEntry("action", key..., actionArgs...)
      p4::EntrySpec spec;
      spec.action = action_name(0);
      spec.key = key_from(1);
      spec.action_args = action_args_from(1 + keys);
      return static_cast<p4r::creact::CValue>(ctx_->add_entry(table, spec));
    }
    if (method == "modEntry") {
      // modEntry("action", key..., actionArgs...)
      const std::string action = action_name(0);
      const auto key = key_from(1);
      const auto id = ctx_->find_entry(table, key);
      if (!id.has_value()) throw UserError(table + ".modEntry: no such entry");
      ctx_->mod_entry(table, *id, action, action_args_from(1 + keys));
      return 0;
    }
    if (method == "delEntry") {
      // delEntry(key...)
      const auto key = key_from(0);
      const auto id = ctx_->find_entry(table, key);
      if (!id.has_value()) throw UserError(table + ".delEntry: no such entry");
      ctx_->del_entry(table, *id);
      return 0;
    }
    if (method == "hasEntry") {
      return ctx_->find_entry(table, key_from(0)).has_value() ? 1 : 0;
    }
    if (method == "entryCount") {
      return static_cast<p4r::creact::CValue>(ctx_->entry_count(table));
    }
    if (method == "setDefault") {
      // setDefault("action", args...) — management-style, not versioned.
      const std::string action = action_name(0);
      const auto* ai = info.find_action(action);
      if (ai == nullptr || !ai->dims.empty()) {
        throw UserError(table + ".setDefault: action must exist and be "
                        "specialization-free");
      }
      agent.drv_->set_default(table, ai->specialized[0], action_args_from(1));
      return 0;
    }
    throw UserError("unknown table method: " + table + "." + method);
  }

  p4r::creact::CValue now_us() override { return ctx_->now() / 1000; }

 private:
  ReactionContext* ctx_;
  std::string reaction_;
};

// ---------------------------------------------------------------------------
// Agent
// ---------------------------------------------------------------------------

Agent::Agent(driver::Driver& drv, const compile::Artifacts& artifacts,
             AgentOptions opts)
    : drv_(&drv),
      art_(&artifacts),
      opts_(opts),
      measure_(opts.register_cache),
      protocol_(drv, tables_) {
  const auto& bind = art_->bindings;
  expects(!bind.init_tables.empty(), "Agent: artifacts have no init tables");

  if (opts_.async_push) {
    driver::AsyncDriverOptions aopts;
    aopts.pipeline_depth = opts_.async_pipeline_depth;
    adrv_ = std::make_unique<driver::AsyncDriver>(drv, aopts);
  }

  tel_ = &drv.target().loop().telemetry();
  prov_ = &tel_->provenance();
  rec_ = &tel_->recorder();
  // Agents sharing one loop (multi-pipeline stacks) each get their own
  // metric names; the first keeps the plain "agent." prefix so the common
  // single-agent case reads naturally.
  auto& instances = tel_->metrics().counter("agent.instances");
  const std::uint64_t index = instances.value();
  instances.add();
  const std::string prefix =
      index == 0 ? "agent." : "agent" + std::to_string(index) + ".";
  iters_ctr_ = &tel_->metrics().counter(prefix + "dialogue.iterations");
  busy_ctr_ = &tel_->metrics().counter(prefix + "dialogue.busy_ns");
  telemetry::HistogramOptions iter_opts;
  iter_opts.first_bucket = 1024;  // ns; iterations run ~10..100us
  iter_opts.keep_raw = true;      // iteration_latencies() stays exact
  iter_hist_ =
      &tel_->metrics().histogram(prefix + "dialogue.iteration_ns", iter_opts);
  telemetry::HistogramOptions phase_opts;
  phase_opts.first_bucket = 256;
  phase_mv_flip_ =
      &tel_->metrics().histogram(prefix + "phase.mv_flip_ns", phase_opts);
  phase_measure_ =
      &tel_->metrics().histogram(prefix + "phase.measure_ns", phase_opts);
  phase_react_ =
      &tel_->metrics().histogram(prefix + "phase.react_ns", phase_opts);
  phase_update_ =
      &tel_->metrics().histogram(prefix + "phase.update_ns", phase_opts);

  // Alternative counts per malleable field (from the selector scalar slots).
  AltCounts alt_counts;
  for (const auto& [name, slot] : bind.scalars) {
    scalars_.emplace(name, slot.init_value);
    if (slot.is_selector) alt_counts.emplace(name, slot.alt_count);
  }

  for (const auto& [name, info] : bind.tables) {
    TableRuntime rt;
    rt.info = &info;
    for (const auto& [field, col] : info.selector_cols) {
      (void)col;
      rt.alts.emplace(field, alt_counts.at(field));
    }
    tables_.emplace(name, std::move(rt));
  }

  for (const auto& rx : art_->reactions) {
    ReactionRt rt;
    rt.info = bind.find_reaction(rx.name);
    ensures(rt.info != nullptr, "Agent: no binding for reaction " + rx.name);
    rt.body = std::make_unique<p4r::creact::CBody>(
        p4r::creact::parse_body(rx.body));
    rt.interp = std::make_unique<p4r::creact::Interp>(*rt.body);
    reactions_.push_back(std::move(rt));
  }
}

sim::EventLoop& Agent::loop() { return drv_->target().loop(); }

Agent::ReactionRt* Agent::find_reaction(const std::string& name) {
  for (auto& rt : reactions_) {
    if (rt.info->name == name) return &rt;
  }
  return nullptr;
}

void Agent::set_native_reaction(const std::string& name, NativeFn fn,
                                Duration cost) {
  auto* rt = find_reaction(name);
  if (rt == nullptr) throw UserError("no such reaction: " + name);
  rt->native = std::move(fn);
  rt->native_cost = cost;
  rt->use_native = true;
}

void Agent::swap_to_interpreted(const std::string& name, bool reinit_statics) {
  auto* rt = find_reaction(name);
  if (rt == nullptr) throw UserError("no such reaction: " + name);
  rt->use_native = false;
  if (reinit_statics) rt->interp->reset_statics();
}

std::vector<std::uint64_t> Agent::master_args(int vv, int mv) const {
  const auto& master = art_->bindings.init_tables.front();
  std::vector<std::uint64_t> args;
  args.reserve(master.params.size());
  for (const auto& p : master.params) {
    if (p == "vv_") {
      args.push_back(static_cast<std::uint64_t>(vv));
    } else if (p == "mv_") {
      args.push_back(static_cast<std::uint64_t>(mv));
    } else {
      args.push_back(scalars_.at(p));
    }
  }
  return args;
}

std::vector<std::uint64_t> Agent::init_args(
    std::size_t table_idx,
    const std::map<std::string, std::uint64_t>& scalars) const {
  const auto& init = art_->bindings.init_tables[table_idx];
  std::vector<std::uint64_t> args;
  args.reserve(init.params.size());
  for (const auto& p : init.params) args.push_back(scalars.at(p));
  return args;
}

void Agent::run_prologue(const std::function<void(ReactionContext&)>& user_init) {
  expects(!prologue_done_, "run_prologue called twice");
  const auto& bind = art_->bindings;

  // Static entries (e.g. malleable-field load tables).
  {
    driver::BatchBuilder batch;
    for (const auto& [table, spec] : bind.static_entries) {
      batch.add_entry(table, spec);
    }
    drv_->run_batch(std::move(batch));
  }

  // Overflow init tables: two entries each (one per vv value).
  init_handles_.assign(bind.init_tables.size(), {0, 0});
  for (std::size_t k = 1; k < bind.init_tables.size(); ++k) {
    for (const int vv : {0, 1}) {
      p4::EntrySpec spec;
      spec.key.push_back(
          p4::MatchValue{static_cast<std::uint64_t>(vv), kFullMask});
      spec.action = bind.init_tables[k].action;
      spec.action_args = init_args(k, scalars_);
      init_handles_[k][static_cast<std::size_t>(vv)] =
          drv_->add_entry(bind.init_tables[k].table, spec);
    }
  }

  // Memoization: precompute driver metadata for everything the dialogue
  // touches repeatedly (paper §6 "prologue").
  for (const auto& init : bind.init_tables) drv_->memoize(init.table, init.action);
  for (const auto& [name, info] : bind.tables) {
    for (const auto& act : info.actions) {
      for (const auto& spec : act.specialized) drv_->memoize(name, spec);
    }
    drv_->memoize(name, "\x1f" "del");
  }

  // Establish the master entry (and its memo) with initial values.
  const auto& master = bind.init_tables.front();
  drv_->set_default(master.table, master.action, master_args(vv_, mv_));
  committed_scalars_ = scalars_;
  prologue_done_ = true;

  if (user_init) {
    user_init_ = user_init;
    ReactionContext ctx(*this, nullptr);
    user_init_(ctx);
  }
}

void Agent::rerun_user_init() {
  expects(prologue_done_, "rerun_user_init requires the prologue");
  if (!user_init_) return;
  ReactionContext ctx(*this, nullptr);
  user_init_(ctx);
}

void Agent::run_one_reaction(ReactionRt& rt) {
  const int checkpoint = mv_ ^ 1;  // the copy the data plane just vacated
  const Time t0 = loop().now();
  const auto params = measure_.poll(*drv_, *rt.info, checkpoint);
  const Time after_poll = loop().now();
  iter_poll_ += after_poll - t0;
  phase_measure_->record(static_cast<std::uint64_t>(after_poll - t0));
  MANTIS_SPAN_RECORD(tel_->tracer(), "dialogue.measure", "dialogue",
                     telemetry::Track::kAgent, t0, after_poll);

  ReactionContext ctx(*this, &params);
  Duration cost = 0;
  if (rt.use_native) {
    rt.native(ctx);
    cost = rt.native_cost > 0 ? rt.native_cost : kNativeReactionCost;
  } else {
    InterpEnv env(ctx, rt.info->name);
    const auto steps = rt.interp->run(params, env);
    cost = static_cast<Duration>(steps) * kInterpStepCost;
  }
  // Charge the reaction's CPU time; the data plane keeps running meanwhile.
  loop().run_until(loop().now() + cost);
  iter_compute_ += loop().now() - after_poll;
  phase_react_->record(static_cast<std::uint64_t>(loop().now() - after_poll));
  MANTIS_SPAN_RECORD(tel_->tracer(), "dialogue.react", "dialogue",
                     telemetry::Track::kAgent, after_poll, loop().now());
}

namespace {

/// Coalesces buffered ops so each user entry appears at most once
/// (add+mod -> add with final spec; add+del -> nothing; mod+mod -> one mod;
/// mod+del -> del).
std::vector<PendingOp> coalesce(std::vector<PendingOp> ops,
                                std::map<std::string, TableRuntime>& tables) {
  std::vector<PendingOp> out;
  std::map<std::pair<std::string, UserEntryId>, std::size_t> index;
  for (auto& op : ops) {
    const auto key = std::make_pair(op.table, op.id);
    auto it = index.find(key);
    if (it == index.end()) {
      index.emplace(key, out.size());
      out.push_back(std::move(op));
      continue;
    }
    PendingOp& prev = out[it->second];
    switch (op.kind) {
      case PendingOp::Kind::kAdd:
        throw InvariantError("coalesce: duplicate add for one entry id");
      case PendingOp::Kind::kMod:
        if (prev.kind == PendingOp::Kind::kAdd) {
          prev.user_spec = std::move(op.user_spec);  // add with final payload
        } else if (prev.kind == PendingOp::Kind::kMod) {
          prev.user_spec = std::move(op.user_spec);  // keep original old_action
        } else {
          throw UserError("coalesce: modify after delete of the same entry");
        }
        break;
      case PendingOp::Kind::kDel:
        if (prev.kind == PendingOp::Kind::kAdd) {
          // Entry never reached the data plane; drop both and the runtime
          // bookkeeping.
          tables.at(op.table).entries.erase(op.id);
          prev.kind = PendingOp::Kind::kDel;
          prev.id = 0;  // tombstone, filtered below
        } else {
          prev.kind = PendingOp::Kind::kDel;
        }
        break;
    }
  }
  std::erase_if(out, [](const PendingOp& op) {
    return op.kind == PendingOp::Kind::kDel && op.id == 0;
  });
  return out;
}

}  // namespace

void Agent::apply_updates() {
  // Settle the previous iteration's in-flight push batches (normally just
  // the mirror) before staging against those copies again: the mirror's add
  // handles must be recorded before prepare can modify or delete them.
  drain_pending_pushes();

  auto ops = coalesce(std::move(pending_), tables_);
  pending_.clear();
  const bool scalars_dirty = scalars_ != committed_scalars_;
  if (ops.empty() && !scalars_dirty && !opts_.commit_every_iteration) return;

  if (adrv_) {
    apply_updates_async(ops);
    return;
  }

  const auto& bind = art_->bindings;
  const int vv_next = vv_ ^ 1;
  const Time t0 = loop().now();

  // PREPARE: shadow copies of table ops, then the dirty overflow init
  // entries, as two sync batches.
  protocol_.run_copies(ops, {vv_next});
  drv_->run_batch(dirty_init_rows({vv_next}));
  const Time after_prepare = loop().now();
  MANTIS_SPAN_RECORD(tel_->tracer(), "dialogue.prepare", "dialogue",
                     telemetry::Track::kAgent, t0, after_prepare, "ops",
                     static_cast<std::int64_t>(ops.size()));

  // COMMIT: one master update flips vv and carries the new scalars.
  const auto& master = bind.init_tables.front();
  drv_->set_default(master.table, master.action, master_args(vv_next, mv_));
  const int vv_old = vv_;
  vv_ = vv_next;
  const Time after_commit = loop().now();
  MANTIS_SPAN_RECORD(tel_->tracer(), "dialogue.vv_commit", "dialogue",
                     telemetry::Track::kAgent, after_prepare, after_commit,
                     "vv", vv_);

  // MIRROR: bring the old-primary copies up to date, again as two batches.
  protocol_.run_copies(ops, {vv_old});
  protocol_.erase_deleted(ops);
  drv_->run_batch(dirty_init_rows({vv_old}));
  record_scalar_commits();
  committed_scalars_ = scalars_;
  MANTIS_SPAN_RECORD(tel_->tracer(), "dialogue.shadow_fill", "dialogue",
                     telemetry::Track::kAgent, after_commit, loop().now(),
                     "ops", static_cast<std::int64_t>(ops.size()));
}

void Agent::apply_updates_async(const std::vector<PendingOp>& ops) {
  const auto& bind = art_->bindings;
  const int vv_next = vv_ ^ 1;
  const int vv_old = vv_;
  const Time t0 = loop().now();
  const std::uint64_t rid = prov_->current_reaction();

  // PREPARE: shadow copies of table ops + dirty overflow init entries, one
  // batch. submit() returns immediately; effects land at DMA completion.
  driver::BatchBuilder prep;
  auto prep_staged = protocol_.stage_copy(ops, vv_next, prep);
  prep = dirty_init_rows({vv_next}, std::move(prep));
  if (!prep.empty()) {
    driver::SubmitOptions so;
    so.reaction_id = rid;
    so.label = "driver.async.prepare";
    const auto id = adrv_->submit(std::move(prep), so);
    async_pending_.push_back(PendingAsync{id, std::move(prep_staged)});
  }

  // COMMIT: the master update that flips vv and carries the new scalars.
  // The channel is FIFO, so its effects apply strictly after the prepare's.
  driver::BatchBuilder commit;
  const auto& master = bind.init_tables.front();
  commit.set_default(master.table, master.action, master_args(vv_next, mv_));
  driver::SubmitOptions commit_so;
  commit_so.reaction_id = rid;
  commit_so.label = "driver.async.commit";
  const auto commit_id = adrv_->submit(std::move(commit), commit_so);
  async_pending_.push_back(PendingAsync{commit_id, {}});

  // MIRROR: staged now so its prep overlaps the commit's DMA, reaped at the
  // *next* iteration's apply_updates — shadow maintenance runs concurrently
  // with the upcoming poll + compute instead of on the critical path.
  driver::BatchBuilder mirror;
  auto mirror_staged = protocol_.stage_copy(ops, vv_old, mirror);
  mirror = dirty_init_rows({vv_old}, std::move(mirror));
  if (!mirror.empty()) {
    driver::SubmitOptions so;
    so.reaction_id = rid;
    so.label = "driver.async.mirror";
    const auto id = adrv_->submit(std::move(mirror), so);
    async_pending_.push_back(PendingAsync{id, std::move(mirror_staged)});
  }
  protocol_.erase_deleted(ops);

  // Block on the commit only — the serializability point. Packets and other
  // actors keep running while we wait in virtual time.
  loop().run_until(adrv_->completion_time(commit_id));
  vv_ = vv_next;
  // The prepare (and commit) completed no later than the commit instant;
  // absorb their records without waiting for the mirror.
  while (auto c = adrv_->try_reap()) absorb_async(*c);

  record_scalar_commits();
  committed_scalars_ = scalars_;
  MANTIS_SPAN_RECORD(tel_->tracer(), "dialogue.async_push", "dialogue",
                     telemetry::Track::kAgent, t0, loop().now(), "ops",
                     static_cast<std::int64_t>(ops.size()));
}

void Agent::absorb_async(const driver::BatchCompletion& c) {
  ensures(!async_pending_.empty() && async_pending_.front().id == c.id,
          "async push: completion reaped out of submit order");
  ensures(c.ok, "async push: batch failed — update-protocol invariant broken");
  const auto staged = std::move(async_pending_.front().staged);
  async_pending_.erase(async_pending_.begin());
  if (!staged.adds.empty()) protocol_.absorb_copy(staged, c.results);
}

void Agent::drain_pending_pushes() {
  while (adrv_ && !async_pending_.empty()) {
    absorb_async(adrv_->reap());
  }
}

void Agent::record_scalar_commits() {
  if (!rec_->enabled()) return;
  for (const auto& [name, value] : scalars_) {
    auto it = committed_scalars_.find(name);
    if (it != committed_scalars_.end() && it->second == value) continue;
    rec_->record(loop().now(), telemetry::FlightEvent::Kind::kMalleable,
                 prov_->current_reaction(), name,
                 "prev=" + std::to_string(
                               it == committed_scalars_.end() ? 0 : it->second),
                 static_cast<std::int64_t>(value));
  }
}

driver::BatchBuilder Agent::dirty_init_rows(std::initializer_list<int> vvs,
                                            driver::BatchBuilder out) const {
  const auto& inits = art_->bindings.init_tables;
  for (std::size_t k = 1; k < inits.size(); ++k) {
    const auto now_args = init_args(k, scalars_);
    if (now_args == init_args(k, committed_scalars_)) continue;
    for (const int vv : vvs) {
      out.modify_entry(inits[k].table,
                       init_handles_[k][static_cast<std::size_t>(vv)],
                       inits[k].action, now_args);
    }
  }
  return out;
}

void Agent::commit_scalars_immediate() {
  expects(prologue_done_, "scalar writes require the prologue");
  const auto& bind = art_->bindings;
  drv_->run_batch(dirty_init_rows({0, 1}));
  const auto& master = bind.init_tables.front();
  drv_->set_default(master.table, master.action, master_args(vv_, mv_));
  record_scalar_commits();
  committed_scalars_ = scalars_;
}

void Agent::set_scalar(const std::string& name, std::uint64_t value) {
  ReactionContext ctx(*this, nullptr);
  ctx.set(name, value);
}

std::uint64_t Agent::scalar(const std::string& name) const {
  auto it = scalars_.find(name);
  if (it == scalars_.end()) throw UserError("no malleable scalar: " + name);
  return it->second;
}

void Agent::dialogue_iteration() {
  MANTIS_PROF_SCOPE(&tel_->prof(), kAgentPoll, "agent.dialogue");
  expects(prologue_done_, "dialogue requires the prologue");
  const Time t0 = loop().now();
  const auto& master = art_->bindings.init_tables.front();
  const std::uint64_t rid = prov_->begin_reaction(t0);
  iter_poll_ = 0;
  iter_compute_ = 0;

  // (1) flip the measurement version: data plane starts writing the other
  // copy; the vacated copy becomes this iteration's checkpoint.
  drv_->set_default(master.table, master.action, master_args(vv_, mv_ ^ 1));
  mv_ ^= 1;
  const Time after_flip = loop().now();
  MANTIS_SPAN_RECORD(tel_->tracer(), "dialogue.mv_flip", "dialogue",
                     telemetry::Track::kAgent, t0, after_flip, "mv", mv_);

  // (2)+(3) per reaction: poll freshest checkpoints, run the body.
  in_reaction_ = true;
  for (auto& rt : reactions_) run_one_reaction(rt);
  in_reaction_ = false;
  const Time after_react = loop().now();

  // (4)-(6) prepare / commit / mirror.
  apply_updates();

  last_breakdown_.mv_flip = after_flip - t0;
  last_breakdown_.measure_and_react = after_react - after_flip;
  last_breakdown_.update = loop().now() - after_react;

  phase_mv_flip_->record(static_cast<std::uint64_t>(last_breakdown_.mv_flip));
  phase_update_->record(static_cast<std::uint64_t>(last_breakdown_.update));

  iters_ctr_->add();
  const Duration busy = loop().now() - t0;
  busy_ctr_->add(static_cast<std::uint64_t>(busy));
  iter_hist_->record(static_cast<std::uint64_t>(busy));
  MANTIS_SPAN_RECORD(tel_->tracer(), "dialogue.iteration", "dialogue",
                     telemetry::Track::kAgent, t0, loop().now(), "iteration",
                     static_cast<std::int64_t>(iters_ctr_->value()));

  // Provenance: poll = mv flip + measurement reads, compute = reaction
  // bodies, push = prepare/commit/mirror. Closing the frame arms
  // first-effect detection when this iteration mutated dataplane state.
  prov_->end_reaction(rid, loop().now(),
                      last_breakdown_.mv_flip + iter_poll_, iter_compute_,
                      last_breakdown_.update);

  if (opts_.reaction_slo > 0 && busy > opts_.reaction_slo) {
    rec_->trigger(loop().now(),
                  "slo_breach reaction=" + std::to_string(rid) +
                      " busy_ns=" + std::to_string(busy) +
                      " slo_ns=" + std::to_string(opts_.reaction_slo));
  }

  if (opts_.pacing_sleep > 0) {
    loop().run_until(loop().now() + opts_.pacing_sleep);
  }
}

void Agent::run_dialogue(std::size_t iterations) {
  for (std::size_t i = 0; i < iterations; ++i) dialogue_iteration();
}

void Agent::run_dialogue_until(Time t) {
  while (loop().now() < t) dialogue_iteration();
}

}  // namespace mantis::agent
