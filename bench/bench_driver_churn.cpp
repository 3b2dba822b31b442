// Control-plane churn: updates/sec under an ECMP rebalance storm plus a DoS
// blocklist burst, synchronous driver vs the batched asynchronous runtime
// (src/driver/async), head to head.
//
// Three figures:
//  1. Raw driver churn — the same op mix (32 table mods + 16 adds + 16
//     deletes per round) issued three ways: one sync call per op, one sync
//     run_batch per round, and pipelined async batches.
//  2. Agent-integrated — a dialogue whose reaction modifies N user entries
//     per iteration, with AgentOptions::async_push off vs on.
//  3. Equivalence bit — the gray-failure fabric scenario with async push
//     on, run sequentially and on the parallel engine: event log, metrics
//     snapshot, and flight-recorder dump must stay byte-identical
//     (async.par_equiv_ok = 1; the binary exits nonzero when it is not).
#include "bench_util.hpp"

#include <cstdlib>
#include <deque>

#include "driver/async/async_driver.hpp"
#include "net/scenarios.hpp"
#include "p4r/sema.hpp"

namespace {

using namespace mantis;

// ---------------------------------------------------------------------------
// 1. Raw driver churn
// ---------------------------------------------------------------------------

const char* kChurnProg = R"P4R(
header_type h_t { fields { a : 32; } }
header h_t h;
action set_out(port) { modify_field(standard_metadata.egress_spec, port); }
table ecmp { reads { h.a : exact; } actions { set_out; } size : 512; }
table blocklist { reads { h.a : exact; } actions { set_out; } size : 8192; }
control ingress { apply(ecmp); apply(blocklist); }
control egress { }
)P4R";

constexpr int kEcmpEntries = 32;  ///< rebalance storm: mods per round
constexpr int kDosBurst = 16;     ///< blocklist burst: adds (+ deletes)
constexpr int kRounds = 200;

p4::EntrySpec churn_entry(std::uint64_t key, std::uint64_t port) {
  p4::EntrySpec spec;
  spec.key.push_back(p4::MatchValue{key, ~std::uint64_t{0}});
  spec.action = "set_out";
  spec.action_args = {port};
  return spec;
}

struct ChurnStack {
  sim::EventLoop loop;
  p4::Program prog;
  std::unique_ptr<sim::Switch> sw;
  std::unique_ptr<driver::Driver> drv;
  std::vector<sim::EntryHandle> ecmp;  ///< pre-installed rebalance targets

  ChurnStack() {
    prog = p4r::frontend(kChurnProg).prog;
    sw = std::make_unique<sim::Switch>(loop, prog);
    drv = std::make_unique<driver::Driver>(*sw);
    // Prologue-style memoization + the initial ECMP group, outside the
    // measured window (all modes churn against warm driver metadata).
    drv->memoize("ecmp", "set_out");
    drv->memoize("blocklist", "set_out");
    drv->memoize("blocklist", "\x1f""del");
    for (int i = 0; i < kEcmpEntries; ++i) {
      ecmp.push_back(drv->add_entry("ecmp", churn_entry(i, 1)));
    }
  }

  std::uint64_t blocklist_key(int round, int i) const {
    return 1000 + static_cast<std::uint64_t>(round) * kDosBurst + i;
  }
};

struct ChurnResult {
  std::uint64_t ops = 0;
  Duration elapsed = 0;
  double updates_per_sec() const {
    return elapsed <= 0 ? 0.0
                        : static_cast<double>(ops) * 1e9 /
                              static_cast<double>(elapsed);
  }
};

/// One sync driver call per update (the naive controller under churn).
ChurnResult churn_sync() {
  ChurnStack s;
  ChurnResult res;
  std::vector<sim::EntryHandle> last_adds;
  const Time t0 = s.loop.now();
  for (int r = 0; r < kRounds; ++r) {
    for (int i = 0; i < kEcmpEntries; ++i) {
      s.drv->modify_entry("ecmp", s.ecmp[i], "set_out",
                          {static_cast<std::uint64_t>(1 + (r + i) % 4)});
    }
    std::vector<sim::EntryHandle> adds;
    for (int i = 0; i < kDosBurst; ++i) {
      adds.push_back(
          s.drv->add_entry("blocklist", churn_entry(s.blocklist_key(r, i), 0)));
    }
    for (const auto h : last_adds) s.drv->delete_entry("blocklist", h);
    res.ops += kEcmpEntries + kDosBurst + last_adds.size();
    last_adds = std::move(adds);
  }
  res.elapsed = s.loop.now() - t0;
  return res;
}

/// One synchronous run_batch per round: the transfer is coalesced, but
/// the CPU still blocks until each round's batch completes.
ChurnResult churn_sync_batch() {
  ChurnStack s;
  ChurnResult res;
  std::vector<sim::EntryHandle> last_adds;
  const Time t0 = s.loop.now();
  for (int r = 0; r < kRounds; ++r) {
    driver::BatchBuilder batch;
    for (int i = 0; i < kEcmpEntries; ++i) {
      batch.modify_entry("ecmp", s.ecmp[i], "set_out",
                         {static_cast<std::uint64_t>(1 + (r + i) % 4)});
    }
    for (int i = 0; i < kDosBurst; ++i) {
      batch.add_entry("blocklist", churn_entry(s.blocklist_key(r, i), 0));
    }
    for (const auto h : last_adds) batch.delete_entry("blocklist", h);
    res.ops += batch.size();
    last_adds.clear();
    for (const auto& op : s.drv->run_batch(std::move(batch))) {
      if (op.kind == driver::Op::Kind::kAdd) last_adds.push_back(op.handle);
    }
  }
  res.elapsed = s.loop.now() - t0;
  return res;
}

/// Pipelined async batches. The controller keeps up to `depth` batches in
/// flight and reaps with a lag, so round r's prep overlaps round r-1's DMA.
/// Deletes consume handles harvested from already-reaped completions (a
/// couple of rounds behind the adds — the natural shape for an async
/// controller, which cannot name a handle before its batch completes).
ChurnResult churn_async(std::size_t pipeline_depth) {
  ChurnStack s;
  driver::AsyncDriverOptions aopts;
  aopts.pipeline_depth = pipeline_depth;
  driver::AsyncDriver adrv(*s.drv, aopts);

  ChurnResult res;
  std::deque<std::vector<sim::EntryHandle>> harvested;  ///< adds awaiting delete
  const Time t0 = s.loop.now();
  for (int r = 0; r < kRounds; ++r) {
    driver::BatchBuilder batch;
    for (int i = 0; i < kEcmpEntries; ++i) {
      batch.modify_entry("ecmp", s.ecmp[i], "set_out",
                         {static_cast<std::uint64_t>(1 + (r + i) % 4)});
    }
    for (int i = 0; i < kDosBurst; ++i) {
      batch.add_entry("blocklist", churn_entry(s.blocklist_key(r, i), 0));
    }
    if (!harvested.empty()) {
      for (const auto h : harvested.front()) batch.delete_entry("blocklist", h);
      harvested.pop_front();
    }
    res.ops += batch.size();
    adrv.submit(std::move(batch));
    if (adrv.in_flight() >= pipeline_depth) {
      const auto c = adrv.reap();  // oldest batch; the wait overlaps newer DMAs
      if (!c.ok) std::abort();
      std::vector<sim::EntryHandle> adds;
      for (const auto& op : c.results) {
        if (op.kind == driver::Op::Kind::kAdd) adds.push_back(op.handle);
      }
      harvested.push_back(std::move(adds));
    }
  }
  for (const auto& c : adrv.reap_all()) {
    if (!c.ok) std::abort();
  }
  res.elapsed = s.loop.now() - t0;
  return res;
}

// ---------------------------------------------------------------------------
// 2. Agent-integrated churn
// ---------------------------------------------------------------------------

const char* kAgentProg = R"P4R(
header_type h_t { fields { k : 32; } }
header h_t h;
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
malleable table mt { reads { h.k : exact; } actions { fwd; } size : 256; }
control ingress { apply(mt); }
control egress { }
reaction rx(ing h.k) { }
)P4R";

double agent_iteration_us(bool async_push, int mods) {
  agent::AgentOptions aopts;
  aopts.async_push = async_push;
  bench::Stack stack(kAgentProg, {}, aopts);

  std::vector<agent::UserEntryId> ids;
  stack.agent->run_prologue([&](agent::ReactionContext& ctx) {
    for (int i = 0; i < mods; ++i) {
      p4::EntrySpec spec;
      spec.key = {{static_cast<std::uint64_t>(i), ~std::uint64_t{0}}};
      spec.action = "fwd";
      spec.action_args = {1};
      ids.push_back(ctx.add_entry("mt", spec));
    }
  });
  std::uint64_t round = 0;
  stack.agent->set_native_reaction("rx", [&](agent::ReactionContext& ctx) {
    ++round;
    for (const auto id : ids) ctx.mod_entry("mt", id, "fwd", {1 + (round % 4)});
  });
  stack.agent->run_dialogue(30);
  stack.agent->drain_pending_pushes();
  Samples steady;
  const auto& all = stack.agent->iteration_latencies().values();
  for (std::size_t i = 5; i < all.size(); ++i) steady.add(all[i]);
  return steady.median() / 1000.0;
}

// ---------------------------------------------------------------------------
// 3. Sequential-vs-parallel equivalence bit (async push on)
// ---------------------------------------------------------------------------

struct EquivSignature {
  std::string events;
  std::string metrics;
  std::string mfr;
  bool operator==(const EquivSignature&) const = default;
};

EquivSignature run_gray_async(int threads) {
  net::GrayScenarioConfig cfg;
  cfg.seed = 5;
  cfg.threads = threads;
  cfg.agent.async_push = true;
  net::GrayFabricScenario scenario(cfg);
  const auto res = scenario.run();

  EquivSignature sig;
  for (const auto& line : res.events) {
    sig.events += line;
    sig.events += '\n';
  }
  sig.metrics = scenario.loop().telemetry().metrics().snapshot_json();
  sig.mfr = scenario.loop().telemetry().recorder().dump_text(
      scenario.loop().now(), "equivalence");
  return sig;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Report report("driver_churn", argc, argv);
  report.params().set("rounds", std::int64_t{kRounds});
  report.params().set("ecmp_mods_per_round", std::int64_t{kEcmpEntries});
  report.params().set("dos_burst", std::int64_t{kDosBurst});

  bench::print_header(
      "Control-plane churn: ECMP rebalance storm + DoS blocklist burst "
      "(updates/sec, virtual time)");
  bench::print_row({"mode", "ops", "elapsed_us", "updates_per_s"}, 16);

  const auto sync = churn_sync();
  const auto sync_batch = churn_sync_batch();
  bench::print_row({"sync", std::to_string(sync.ops),
                    bench::fmt_us(sync.elapsed),
                    bench::fmt(sync.updates_per_sec(), 0)},
                   16);
  bench::print_row({"sync_batch", std::to_string(sync_batch.ops),
                    bench::fmt_us(sync_batch.elapsed),
                    bench::fmt(sync_batch.updates_per_sec(), 0)},
                   16);
  report.set("churn.sync.updates_per_s", sync.updates_per_sec());
  report.set("churn.sync_batch.updates_per_s", sync_batch.updates_per_sec());

  double best_async = 0;
  for (const std::size_t depth : {1u, 2u, 4u}) {
    const auto as = churn_async(depth);
    bench::print_row({"async_k" + std::to_string(depth), std::to_string(as.ops),
                      bench::fmt_us(as.elapsed),
                      bench::fmt(as.updates_per_sec(), 0)},
                     16);
    report.set("churn.async_k" + std::to_string(depth) + ".updates_per_s",
               as.updates_per_sec());
    if (as.updates_per_sec() > best_async) best_async = as.updates_per_sec();
  }
  const double speedup = best_async / sync.updates_per_sec();
  report.set("churn.async_speedup_vs_sync", speedup);
  std::printf("\nbatched-async vs sync speedup: %.2fx (acceptance: >= 5x)\n",
              speedup);

  bench::print_header(
      "Agent-integrated: dialogue iteration latency, async push off vs on");
  bench::print_row({"N_mods", "sync_us", "async_us", "speedup"});
  for (const int mods : {4, 16, 64}) {
    const double off = agent_iteration_us(false, mods);
    const double on = agent_iteration_us(true, mods);
    bench::print_row({std::to_string(mods), bench::fmt(off, 1),
                      bench::fmt(on, 1), bench::fmt(off / on, 2)});
    const std::string key = "agent.mods" + std::to_string(mods);
    report.set(key + ".sync_iter_us", off);
    report.set(key + ".async_iter_us", on);
    report.set(key + ".speedup", off / on);
  }

  bench::print_header("Equivalence: async push, sequential vs parallel engine");
  const auto seq = run_gray_async(1);
  const auto par = run_gray_async(4);
  const bool equiv = seq == par;
  std::printf("async.par_equiv_ok = %d (events %zuB, metrics %zuB, mfr %zuB)\n",
              equiv ? 1 : 0, seq.events.size(), seq.metrics.size(),
              seq.mfr.size());
  report.set("async.par_equiv_ok", equiv ? 1.0 : 0.0);

  std::printf(
      "\nThe async runtime wins twice: per-op prep and DMA are discounted\n"
      "(one descriptor walk and one shared round trip per batch), and up to\n"
      "K transfers pipeline on the channel so prep overlaps in-flight DMA.\n"
      "The agent rides the same runtime for its push phase, waiting only on\n"
      "the commit; the mirror overlaps the next iteration's poll+compute.\n");
  report.write();
  return equiv ? 0 : 1;
}
