// p4r_inspect: query flight-recorder .mfr dumps and live stack snapshots.
//
// Usage:
//   p4r_inspect show <dump.mfr>
//   p4r_inspect diff <dump.mfr> <t1> <t2>      # events in [t1,t2] virtual ns
//   p4r_inspect reaction <dump.mfr> <id>       # one reaction's provenance
//   p4r_inspect int <dump.mfr>                 # INT sink reports, per hop
//   p4r_inspect channel <dump.mfr>             # driver-channel utilization
//   p4r_inspect prof <report.json>             # hot-path profile breakdown
//   p4r_inspect export --chrome <dump.mfr> [-o out.json]
//   p4r_inspect snapshot <prog.p4r> [--iters N] [-o out.mfr]
//
// `show`/`diff`/`reaction` render text views over a dump produced by an
// anomaly trigger (check divergence, fabric fault, SLO breach — see
// docs/TELEMETRY.md). `export --chrome` converts a dump to Chrome trace JSON.
// `snapshot` builds the full stack from P4R source, runs the prologue plus N
// dialogue iterations, and dumps live state (registers, table entries, queue
// depths) — byte-identical across runs of the same input.
//
// Numbers are decimal. Exit status: 0 on success, 1 on I/O or parse failure,
// 2 on usage errors.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "agent/agent.hpp"
#include "compile/compiler.hpp"
#include "driver/driver.hpp"
#include "int/collector.hpp"
#include "sim/switch.hpp"
#include "telemetry/inspect.hpp"
#include "telemetry/metrics.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s show <dump.mfr>\n"
               "       %s diff <dump.mfr> <t1> <t2>\n"
               "       %s reaction <dump.mfr> <id>\n"
               "       %s int <dump.mfr>\n"
               "       %s channel <dump.mfr>\n"
               "       %s prof <report.json>\n"
               "       %s export --chrome <dump.mfr> [-o out.json]\n"
               "       %s snapshot <prog.p4r> [--iters N] [-o out.mfr]\n",
               argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0);
  return 2;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw mantis::UserError("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void emit(const std::string& out_path, const std::string& text) {
  if (out_path.empty()) {
    std::fputs(text.c_str(), stdout);
  } else {
    mantis::telemetry::write_text_file(out_path, text);
    std::fprintf(stderr, "written to %s\n", out_path.c_str());
  }
}

/// Builds the full stack from P4R source, runs prologue + `iters` dialogue
/// iterations, and returns the flight-recorder dump of the final state.
std::string live_snapshot(const std::string& source, std::uint64_t iters) {
  using namespace mantis;
  const auto artifacts = compile::compile_source(source);
  sim::EventLoop loop;
  sim::Switch sw(loop, artifacts.prog);
  driver::Driver drv(sw);
  agent::Agent agent(drv, artifacts);
  agent.run_prologue();
  for (std::uint64_t i = 0; i < iters; ++i) agent.dialogue_iteration();
  loop.run();
  return loop.telemetry().recorder().dump_text(
      loop.now(), "snapshot iters=" + std::to_string(iters));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mantis;
  if (argc < 3) return usage(argv[0]);
  const std::string cmd = argv[1];

  try {
    if (cmd == "show") {
      const auto dump = telemetry::parse_mfr(slurp(argv[2]));
      std::fputs(telemetry::mfr_show_text(dump).c_str(), stdout);
      return 0;
    }
    if (cmd == "diff") {
      if (argc < 5) return usage(argv[0]);
      const auto t1 = parse_number<Time>("diff <t1>", argv[3]);
      const auto t2 = parse_number<Time>("diff <t2>", argv[4]);
      const auto dump = telemetry::parse_mfr(slurp(argv[2]));
      std::fputs(telemetry::mfr_diff_text(dump, t1, t2).c_str(), stdout);
      return 0;
    }
    if (cmd == "reaction") {
      if (argc < 4) return usage(argv[0]);
      const auto id = parse_number<std::uint64_t>("reaction <id>", argv[3]);
      const auto dump = telemetry::parse_mfr(slurp(argv[2]));
      std::fputs(telemetry::mfr_reaction_text(dump, id).c_str(), stdout);
      return 0;
    }
    if (cmd == "int") {
      const auto dump = telemetry::parse_mfr(slurp(argv[2]));
      std::fputs(telemetry::mfr_int_text(dump).c_str(), stdout);
      return 0;
    }
    if (cmd == "channel") {
      const auto dump = telemetry::parse_mfr(slurp(argv[2]));
      std::fputs(telemetry::mfr_channel_text(dump).c_str(), stdout);
      return 0;
    }
    if (cmd == "prof") {
      // Accepts a standalone ProfileReport JSON (example --prof / bench
      // --prof output) or a full bench report embedding a "prof" section.
      std::fputs(telemetry::prof_report_text(slurp(argv[2])).c_str(), stdout);
      return 0;
    }
    if (cmd == "export") {
      std::string in_path, out_path;
      bool chrome = false;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--chrome") == 0) {
          chrome = true;
        } else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else {
          in_path = argv[i];
        }
      }
      if (!chrome || in_path.empty()) return usage(argv[0]);
      const auto dump = telemetry::parse_mfr(slurp(in_path));
      emit(out_path, telemetry::mfr_chrome_json(dump));
      return 0;
    }
    if (cmd == "snapshot") {
      std::string src_path, out_path;
      std::uint64_t iters = 3;
      for (int i = 2; i < argc; ++i) {
        if (std::strcmp(argv[i], "--iters") == 0) {
          iters = parse_number<std::uint64_t>("--iters",
                                              flag_value(argc, argv, i));
        } else if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
          out_path = argv[++i];
        } else {
          src_path = argv[i];
        }
      }
      if (src_path.empty()) return usage(argv[0]);
      emit(out_path, live_snapshot(slurp(src_path), iters));
      return 0;
    }
  } catch (const FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "p4r_inspect: %s\n", e.what());
    return 1;
  }
  return usage(argv[0]);
}
