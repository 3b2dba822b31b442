// Shared helpers for the benchmark/experiment binaries. Each bench binary
// regenerates one table or figure from the paper's evaluation (§8), printing
// paper-style rows computed over virtual time AND writing the same numbers
// as a machine-readable JSON report ({bench, params, metrics}, schema in
// docs/TELEMETRY.md) — default BENCH_<name>.json, overridable with
// `--out <path>`.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "compile/compiler.hpp"
#include "driver/driver.hpp"
#include "sim/switch.hpp"
#include "telemetry/telemetry.hpp"

namespace mantis::bench {

/// Full stack bundle (mirrors tests/helpers.hpp, duplicated to keep the
/// bench tree self-contained).
struct Stack {
  compile::Artifacts artifacts;
  sim::EventLoop loop;
  std::unique_ptr<sim::Switch> sw;
  std::unique_ptr<driver::Driver> drv;
  std::unique_ptr<agent::Agent> agent;

  explicit Stack(const std::string& p4r_source, sim::SwitchConfig sw_cfg = {},
                 agent::AgentOptions agent_opts = {},
                 driver::DriverOptions drv_opts = {},
                 compile::Options compile_opts = {}) {
    artifacts = compile::compile_source(p4r_source, compile_opts);
    sw = std::make_unique<sim::Switch>(loop, artifacts.prog, sw_cfg);
    drv = std::make_unique<driver::Driver>(*sw, drv_opts);
    agent = std::make_unique<agent::Agent>(*drv, artifacts, agent_opts);
  }
};

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
}

inline std::string fmt(double v, int prec = 2) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

inline std::string fmt_us(Duration d) { return fmt(to_us(d), 2); }

/// Machine-readable results for one bench binary: a private MetricsRegistry
/// the figure functions record into (mirroring the rows they print), wrapped
/// in the {bench, params, metrics} report schema on write().
class Report {
 public:
  /// Parses `--out <path>` from argv (consuming nothing; google-benchmark
  /// ignores unknown flags only when told to, so benches pass argc/argv here
  /// BEFORE benchmark::Initialize).
  Report(std::string name, int argc = 0, char** argv = nullptr)
      : name_(std::move(name)), out_path_("BENCH_" + name_ + ".json") {
    for (int i = 1; argv != nullptr && i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--out") out_path_ = argv[i + 1];
    }
  }

  telemetry::ReportParams& params() { return params_; }
  telemetry::MetricsRegistry& metrics() { return metrics_; }

  /// Shorthand for the common "one figure cell = one number" case.
  void set(const std::string& metric, double value) {
    metrics_.gauge(metric).set(value);
  }
  void count(const std::string& metric, std::uint64_t n) {
    metrics_.counter(metric).add(n);
  }

  const std::string& out_path() const { return out_path_; }

  /// Attaches a hot-path profile; write() embeds it as the report's "prof"
  /// section.
  void set_prof(telemetry::prof::ProfileReport prof) {
    prof_ = std::move(prof);
  }

  void write() const {
    telemetry::write_text_file(
        out_path_, telemetry::report_json(name_, params_, metrics_,
                                          prof_ ? &*prof_ : nullptr));
    std::printf("\nresults: %s\n", out_path_.c_str());
  }

 private:
  std::string name_;
  std::string out_path_;
  telemetry::ReportParams params_;
  telemetry::MetricsRegistry metrics_;
  std::optional<telemetry::prof::ProfileReport> prof_;
};

/// google-benchmark reporter that mirrors each run into Report gauges
/// ("bm.<name>.real_ns" / ".cpu_ns" / ".items_per_s") while still printing
/// the normal console table.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(Report& report) : report_(&report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      if (run.error_occurred) continue;
      const std::string base = "bm." + run.benchmark_name();
      report_->set(base + ".real_ns", run.GetAdjustedRealTime());
      report_->set(base + ".cpu_ns", run.GetAdjustedCPUTime());
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        report_->set(base + ".items_per_s", items->second);
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  Report* report_;
};

/// Runs the registered google-benchmark suite, mirroring results into
/// `report`. Call after the figure functions; the caller still owns
/// report.write().
inline void run_benchmarks(int argc, char** argv, Report& report) {
  benchmark::Initialize(&argc, argv);
  CapturingReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
}

}  // namespace mantis::bench
