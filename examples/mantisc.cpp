// mantisc: the Mantis compiler as a command-line tool.
//
// Reads a .p4r file and writes the two artifacts of paper Fig 2 next to it:
//   <name>.p4   — the valid-but-malleable P4-14 program
//   <name>.c    — the reaction library skeleton
// plus a summary of bindings (init-table layout, expansions, measurement
// registers) and the RMT stage allocation.
//
//   $ ./example_mantisc program.p4r
//   $ ./example_mantisc --demo          # compiles the built-in Figure 1
//   $ ./example_mantisc --demo --trace t.json --metrics m.json
//
// --trace / --metrics export host-side compile telemetry: wall-clock spans
// per compiler phase (Chrome trace_event JSON) and a metrics snapshot with
// artifact sizes (docs/TELEMETRY.md). mantisc has no simulation, so the
// tracer times against wall clock.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/dos_mitigation.hpp"
#include "compile/compiler.hpp"
#include "p4/alloc/stage_alloc.hpp"
#include "p4/json.hpp"
#include "p4/resources.hpp"
#include "telemetry/telemetry.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw mantis::UserError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
}

void summarize(const mantis::compile::Artifacts& art) {
  using namespace mantis;
  std::printf("\n-- init tables --\n");
  for (const auto& init : art.bindings.init_tables) {
    std::printf("  %s%s:", init.table.c_str(), init.master ? " (master)" : "");
    for (const auto& p : init.params) std::printf(" %s", p.c_str());
    std::printf("\n");
  }
  std::printf("-- malleable scalars --\n");
  for (const auto& [name, slot] : art.bindings.scalars) {
    std::printf("  %-20s %s, width %u, init %llu%s\n", name.c_str(),
                slot.is_selector ? "field-selector" : "value", slot.width,
                static_cast<unsigned long long>(slot.init_value),
                slot.is_selector
                    ? (" (" + std::to_string(slot.alt_count) + " alts)").c_str()
                    : "");
  }
  std::printf("-- user tables --\n");
  for (const auto& [name, info] : art.bindings.tables) {
    std::printf("  %-20s %s, %zu cols, expansion x%zu%s\n", name.c_str(),
                info.malleable ? "malleable" : "plain", info.total_cols,
                info.expansion_product,
                info.vv_col >= 0 ? ", vv column" : "");
  }
  std::printf("-- reactions --\n");
  for (const auto& rx : art.bindings.reactions) {
    std::printf("  %-20s %zu field params, %zu register params, %zu measure "
                "registers\n",
                rx.name.c_str(), rx.fields.size(), rx.regs.size(),
                rx.measure_regs.size());
  }

  const auto stages = p4::allocate_program_stages(art.prog);
  const auto res = p4::compute_resources(art.prog);
  std::printf("-- resources --\n");
  std::printf("  stages: %d ingress + %d egress; tables: %zu; registers: %zu\n",
              stages.ingress, stages.egress, res.num_tables, res.num_registers);
  std::printf("  SRAM: %llu KB, TCAM: %llu B, metadata: %llu bits\n",
              static_cast<unsigned long long>(res.total_sram_bytes() / 1024),
              static_cast<unsigned long long>(res.total_tcam_bytes()),
              static_cast<unsigned long long>(res.metadata_bits));
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, trace_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (input.empty()) {
      input = argv[i];
    } else {
      input.clear();
      break;
    }
  }
  if (input.empty()) {
    std::fprintf(stderr,
                 "usage: %s <file.p4r> | --demo [--trace <out.json>] "
                 "[--metrics <out.json>]\n",
                 argv[0]);
    return 2;
  }
  try {
    using mantis::telemetry::Track;
    // Standalone bundle: no event loop, so spans time against wall clock.
    mantis::telemetry::Telemetry tel;
    if (!trace_path.empty()) tel.tracer().set_enabled(true);
    [[maybe_unused]] auto& tracer = tel.tracer();

    std::string source;
    std::string stem;
    if (input == "--demo") {
      source = mantis::apps::dos_p4r_source();
      stem = "dos_demo";
      std::printf("compiling the built-in DoS-mitigation use case\n");
    } else {
      MANTIS_SPAN(tracer, "mantisc.read_source", "host", Track::kHost);
      source = read_file(input);
      stem = input;
      if (const auto dot = stem.rfind(".p4r"); dot != std::string::npos) {
        stem = stem.substr(0, dot);
      }
    }

    mantis::compile::Artifacts art;
    {
      MANTIS_SPAN(tracer, "mantisc.compile", "host", Track::kHost,
                  "source_bytes", static_cast<std::int64_t>(source.size()));
      art = mantis::compile::compile_source(source);
    }
    {
      MANTIS_SPAN(tracer, "mantisc.write_artifacts", "host", Track::kHost);
      write_file(stem + ".p4", art.p4_source);
      write_file(stem + ".c", art.c_source);
      write_file(stem + ".json", mantis::p4::emit_json(art.prog));
    }
    {
      MANTIS_SPAN(tracer, "mantisc.summarize", "host", Track::kHost);
      summarize(art);
    }

    auto& m = tel.metrics();
    m.counter("mantisc.source_bytes").add(source.size());
    m.counter("mantisc.p4_bytes").add(art.p4_source.size());
    m.counter("mantisc.c_bytes").add(art.c_source.size());
    m.counter("mantisc.reactions").add(art.reactions.size());
    m.counter("mantisc.init_tables").add(art.bindings.init_tables.size());
    if (!trace_path.empty()) {
      tel.write_trace_json(trace_path);
      std::printf("trace: %s\n", trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      mantis::telemetry::ReportParams params;
      params.set("input", input);
      tel.write_metrics_json(metrics_path, "mantisc", params);
      std::printf("metrics: %s\n", metrics_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mantisc: %s\n", e.what());
    return 1;
  }
}
