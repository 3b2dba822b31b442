// Figure 10: latency of raw measurements and updates (before isolation).
//
//  10a — measurement latency vs. total state read, for 32-bit field
//        arguments (one scattered PCIe word read per packed register, linear)
//        and 32-bit register arguments (one contiguous DMA, ~10s of ns per
//        extra byte).
//  10b — update latency vs. number of updates, for scalar malleables (flat:
//        any number packs into the single master init update) and malleable
//        table entries (linear in entries touched).
//
// Also validates the §8.1 cost-equation prediction against a measured loop.
#include <benchmark/benchmark.h>

#include <sstream>

#include "agent/cost_equation.hpp"
#include "bench_util.hpp"

namespace {

using namespace mantis;

/// A program with `n_fields` 32-bit ingress field args in one reaction.
std::string field_args_program(int n_fields) {
  std::ostringstream src;
  src << "header_type h_t { fields {";
  for (int i = 0; i < n_fields; ++i) src << " f" << i << " : 32;";
  src << " } }\nheader h_t h;\n";
  src << "register big { width : 32; instance_count : 256; }\n";
  src << "control ingress { }\ncontrol egress { }\n";
  src << "reaction rx(";
  for (int i = 0; i < n_fields; ++i) {
    src << (i > 0 ? ", " : "") << "ing h.f" << i;
  }
  src << ") { }\n";
  return src.str();
}

void figure_10a(bench::Report& report) {
  bench::print_header("Figure 10a: measurement latency vs bytes read");
  bench::print_row({"bytes", "field_args_us", "register_args_us"});
  for (const int bytes : {4, 8, 16, 32, 64, 128, 256, 512}) {
    const int words = bytes / 4;

    // Field arguments: compile a reaction with `words` 32-bit fields and
    // time one measurement poll inside the dialogue machinery.
    bench::Stack stack(field_args_program(words));
    stack.agent->run_prologue();
    // Isolate the measurement: time a raw scattered-word read of the packed
    // measurement registers (what read_measurements does per iteration).
    const auto* rinfo = stack.artifacts.bindings.find_reaction("rx");
    std::vector<driver::Driver::WordRef> refs;
    for (const auto& reg : rinfo->measure_regs) refs.push_back({reg, 0});
    const Time t0 = stack.loop.now();
    stack.drv->read_packed_words(refs);
    const Duration field_lat = stack.loop.now() - t0;

    // Register arguments: one contiguous range read of `bytes`.
    const Time t1 = stack.loop.now();
    stack.drv->read_register_range("big", 0, static_cast<std::uint32_t>(words - 1));
    const Duration reg_lat = stack.loop.now() - t1;

    bench::print_row({std::to_string(bytes), bench::fmt_us(field_lat),
                      bench::fmt_us(reg_lat)});
    const std::string key = "fig10a.bytes" + std::to_string(bytes);
    report.set(key + ".field_args_us", to_us(field_lat));
    report.set(key + ".register_args_us", to_us(reg_lat));
  }
}

/// A program with `n` malleable 16-bit values, all used in one action.
std::string scalars_program(int n) {
  std::ostringstream src;
  src << "header_type h_t { fields { x : 16; } }\nheader h_t h;\n";
  for (int i = 0; i < n; ++i) {
    src << "malleable value k" << i << " { width : 16; init : 0; }\n";
  }
  src << "action bump() {";
  for (int i = 0; i < n; ++i) src << " add(h.x, h.x, ${k" << i << "});";
  src << " }\n";
  src << "table t { actions { bump; } default_action : bump; size : 1; }\n";
  src << "control ingress { apply(t); }\ncontrol egress { }\n";
  // Generous init-action budget: everything packs into the master.
  return src.str();
}

void figure_10b(bench::Report& report) {
  bench::print_header("Figure 10b: update latency vs number of updates");
  bench::print_row({"updates", "scalar_mbl_us", "table_entries_us"});
  for (const int n : {1, 2, 4, 8, 16, 32, 64}) {
    // Scalar malleables: n scalar writes commit in ONE master update.
    compile::Options copts;
    copts.rmt.max_action_bits = 4096;
    bench::Stack scal(scalars_program(n), {}, {}, {}, copts);
    scal.agent->run_prologue();
    // In the dialogue, any number of scalar writes commit via ONE master
    // init update (the serialization point); time exactly that op.
    const Time t0 = scal.loop.now();
    scal.drv->set_default("p4r_init_", "p4r_init_action_",
                          scal.artifacts.prog.find_table("p4r_init_")
                              ->default_action_args);
    const Duration scalar_lat = scal.loop.now() - t0;

    // Malleable table entries: modify n concrete entries in one batch.
    bench::Stack tbl(R"P4R(
header_type h_t { fields { k : 32; } }
header h_t h;
action fwd(p) { modify_field(standard_metadata.egress_spec, p); }
malleable table mt { reads { h.k : exact; } actions { fwd; } size : 256; }
control ingress { apply(mt); }
control egress { }
)P4R");
    tbl.agent->run_prologue();
    auto ctx = tbl.agent->management_context();
    std::vector<agent::UserEntryId> ids;
    for (int i = 0; i < n; ++i) {
      p4::EntrySpec spec;
      spec.key = {{static_cast<std::uint64_t>(i), ~std::uint64_t{0}}};
      spec.action = "fwd";
      spec.action_args = {1};
      ids.push_back(ctx.add_entry("mt", spec));
    }
    driver::BatchBuilder batch;
    auto& raw = tbl.sw->table("mt");
    for (const auto h : raw.handles()) batch.modify_entry("mt", h, "fwd", {2});
    const Time t1 = tbl.loop.now();
    tbl.drv->run_batch(std::move(batch));
    const Duration table_lat = tbl.loop.now() - t1;

    bench::print_row({std::to_string(n), bench::fmt_us(scalar_lat),
                      bench::fmt_us(table_lat)});
    const std::string key = "fig10b.updates" + std::to_string(n);
    report.set(key + ".scalar_mbl_us", to_us(scalar_lat));
    report.set(key + ".table_entries_us", to_us(table_lat));
  }
}

void cost_equation_validation(bench::Report& report) {
  bench::print_header("8.1 cost equation: predicted vs measured iteration latency");
  bench::print_row({"field_args", "predicted_us", "measured_us", "error_%"});
  for (const int words : {1, 4, 16}) {
    bench::Stack stack(field_args_program(words));
    stack.agent->set_native_reaction("rx", [](agent::ReactionContext&) {}, 1000);
    stack.agent->run_prologue();
    stack.agent->run_dialogue(20);
    const double measured = stack.agent->iteration_latencies().median();
    const auto* rinfo = stack.artifacts.bindings.find_reaction("rx");
    const auto predicted = agent::predict_iteration(
        stack.drv->costs(), *rinfo, 1000, 0,
        stack.artifacts.bindings.init_tables.size());
    const double err =
        100.0 * std::abs(measured - static_cast<double>(predicted.total())) /
        measured;
    bench::print_row({std::to_string(words),
                      bench::fmt_us(predicted.total()),
                      bench::fmt(measured / 1000.0, 2), bench::fmt(err, 1)});
    const std::string key = "cost_eq.field_args" + std::to_string(words);
    report.set(key + ".predicted_us", to_us(predicted.total()));
    report.set(key + ".measured_us", measured / 1000.0);
    report.set(key + ".error_pct", err);
  }
}

/// google-benchmark microbenchmarks of the host-side machinery itself
/// (real time, not virtual): how fast the simulator + agent execute.
void BM_DialogueIteration(benchmark::State& state) {
  bench::Stack stack(field_args_program(4));
  stack.agent->run_prologue();
  for (auto _ : state) {
    stack.agent->dialogue_iteration();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DialogueIteration);

void BM_CompileFieldArgsProgram(benchmark::State& state) {
  const auto src = field_args_program(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compile::compile_source(src));
  }
}
BENCHMARK(BM_CompileFieldArgsProgram)->Arg(1)->Arg(8)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  mantis::bench::Report report("fig10_raw_latency", argc, argv);
  figure_10a(report);
  figure_10b(report);
  cost_equation_validation(report);
  mantis::bench::run_benchmarks(argc, argv, report);
  report.write();
  return 0;
}
