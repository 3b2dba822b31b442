// Quickstart: the paper's Figure 1 program, end to end.
//
// Builds the full stack from P4R source — compiler, simulated RMT switch,
// driver, Mantis agent — runs the embedded C reaction in the dialogue loop,
// and shows a malleable value committed by the reaction changing the data
// plane's behaviour.
//
//   $ ./example_quickstart
//   $ ./example_quickstart --trace t.json --metrics m.json --seed 7
//
// --trace writes a Chrome trace_event JSON (chrome://tracing / Perfetto)
// showing the dialogue phases and driver-channel occupancy in virtual time;
// --metrics writes the stack's metrics snapshot (docs/TELEMETRY.md);
// --seed draws the emulated queue depths from a seeded Rng (same seed =>
// same argmax and same committed malleable value) instead of the fixed
// single-cell default. A bad flag or value exits 2 after one "error:" line.
#include <cstdio>
#include <memory>
#include <string>

#include "agent/agent.hpp"
#include "compile/compiler.hpp"
#include "driver/driver.hpp"
#include "sim/switch.hpp"
#include "telemetry/telemetry.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace {

// Figure 1 of the paper, lightly adapted to a complete program: a malleable
// value and field, a malleable table, and a reaction that scans a register
// array and retargets ${value_var} at the most loaded index.
const char* kFigure1 = R"P4R(
header_type hdr_t {
  fields { foo : 32; bar : 32; baz : 16; qux : 32; }
}
header hdr_t hdr;

malleable value value_var { width : 16; init : 1; }
malleable field field_var {
  width : 32;
  init : hdr.foo;
  alts { hdr.foo, hdr.bar }
}

register qdepths { width : 32; instance_count : 16; }

action my_action() {
  add(hdr.baz, hdr.baz, ${value_var});
  modify_field(${field_var}, hdr.qux);
}
action fwd(port) { modify_field(standard_metadata.egress_spec, port); }

malleable table table_var {
  reads { ${field_var} : exact; }
  actions { my_action; _drop; }
  size : 64;
}
table out { actions { fwd; } default_action : fwd(1); size : 1; }

control ingress { apply(table_var); apply(out); }
control egress { }

reaction my_reaction(reg qdepths[1:10]) {
  uint16_t current_max = 0;
  uint16_t max_port = 0;
  for (int i = 1; i <= 10; ++i) {
    if (qdepths[i] > current_max) {
      current_max = qdepths[i];
      max_port = i;
    }
  }
  ${value_var} = max_port;
}
)P4R";

}  // namespace

int main(int argc, char** argv) {
  using namespace mantis;

  std::string trace_path, metrics_path;
  bool seeded = false;
  std::uint64_t seed = 0;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      const char* v = flag_value(argc, argv, i);
      if (flag == "--trace") {
        trace_path = v;
      } else if (flag == "--metrics") {
        metrics_path = v;
      } else if (flag == "--seed") {
        seeded = true;
        seed = parse_number<std::uint64_t>("--seed", v);
      } else {
        throw FlagError("unknown flag " + flag);
      }
    }
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  // 1. Compile P4R -> (malleable P4 program, bindings, reaction bodies).
  const auto artifacts = compile::compile_source(kFigure1);
  std::printf("--- generated P4-14 (excerpt) ---\n%.600s...\n\n",
              artifacts.p4_source.c_str());
  std::printf("--- generated C skeleton (excerpt) ---\n%.400s...\n\n",
              artifacts.c_source.c_str());

  // 2. Load the program into the simulated RMT switch; attach driver+agent.
  sim::EventLoop loop;
  if (!trace_path.empty()) loop.telemetry().tracer().set_enabled(true);
  sim::Switch sw(loop, artifacts.prog);
  driver::Driver drv(sw);
  agent::Agent agent(drv, artifacts);

  // 3. Prologue: initial entries + memoization.
  agent.run_prologue([](agent::ReactionContext& ctx) {
    p4::EntrySpec match5;
    match5.key = {{5, ~std::uint64_t{0}}};
    match5.action = "my_action";
    ctx.add_entry("table_var", match5);
  });

  // 4. Emulate data-plane register state (queue depths) and run the
  //    interpreted reaction from the .p4r source in the dialogue loop.
  //    With --seed, the depths come from a seeded Rng across all polled
  //    cells (deterministic per seed); otherwise one fixed hot cell.
  if (seeded) {
    Rng rng(seed);
    for (int i = 1; i <= 10; ++i) {
      sw.registers().write("qdepths__dup_", 2 * i + agent.mv(),
                           rng.uniform(100));
      sw.registers().write("qdepths__ts_", 2 * i + agent.mv(), 1);
    }
  } else {
    sw.registers().write("qdepths__dup_", 2 * 7 + agent.mv(), 42);
    sw.registers().write("qdepths__ts_", 2 * 7 + agent.mv(), 1);
  }
  agent.dialogue_iteration();
  std::printf("reaction committed ${value_var} = %llu (argmax register index)\n",
              static_cast<unsigned long long>(agent.scalar("value_var")));

  // 5. The committed value is live in the data plane: hdr.baz += value_var.
  sw.set_on_transmit([&](const sim::Packet& pkt, int port, Time t) {
    std::printf("packet out port %d at t=%lldns: baz=%llu (100 + value_var)\n",
                port, static_cast<long long>(t),
                static_cast<unsigned long long>(
                    sw.factory().get(pkt, "hdr.baz")));
  });
  auto pkt = sw.factory().make();
  sw.factory().set(pkt, "hdr.foo", 5);
  sw.factory().set(pkt, "hdr.baz", 100);
  sw.inject(std::move(pkt), 0);
  loop.run();

  // 6. Shift the malleable field reference: table_var now matches hdr.bar.
  agent.set_scalar("field_var", 1);
  auto pkt2 = sw.factory().make();
  sw.factory().set(pkt2, "hdr.bar", 5);  // matches via the shifted reference
  sw.factory().set(pkt2, "hdr.baz", 200);
  sw.inject(std::move(pkt2), 0);
  loop.run();

  std::printf("dialogue iterations: %llu, median latency %.1f us\n",
              static_cast<unsigned long long>(agent.iterations()),
              agent.iteration_latencies().median() / 1000.0);

  if (!trace_path.empty()) {
    loop.telemetry().write_trace_json(trace_path);
    std::printf("trace: %s (open in chrome://tracing or Perfetto)\n",
                trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    loop.telemetry().write_metrics_json(metrics_path, "quickstart");
    std::printf("metrics: %s\n", metrics_path.c_str());
  }
  return 0;
}
