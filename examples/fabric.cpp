// Fabric gray-failure demo: a 2-leaf/2-spine fabric where every switch runs
// the gray-failure Mantis program under its own agent. A FaultInjector
// silently degrades the leaf-spine link the sender's traffic crosses;
// detection happens from real missing heartbeats, the reroute rewrites the
// leaf's route table, and restoration is measured from actual end-to-end
// packet delivery resuming over the alternate spine.
//
//   $ ./example_fabric
//   $ ./example_fabric --seed 7 --metrics m.json --trace t.json --mfr f.mfr
//   $ ./example_fabric --int 4        # INT on ~1/4 of data flows
//   $ ./example_fabric --threads 4 --pacing-us 100 --prof prof.json
//     (hot-path profile; pacing gives the harness inter-poll windows, so
//      the parallel engine actually runs rounds and shard stats populate)
//
// Deterministic: the same seed reproduces the event log and metrics
// byte-for-byte. Exits 1 if delivery never restores (smoke check) and 2,
// after one "error:" line, on a bad flag or scenario setting.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <limits>
#include <string>

#include "int/int_fabric.hpp"
#include "net/scenarios.hpp"
#include "telemetry/telemetry.hpp"
#include "util/flags.hpp"

namespace {

using namespace mantis;

int run(int argc, char** argv) {
  std::string metrics_path, trace_path, mfr_path, prof_path;
  net::GrayScenarioConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* v = flag_value(argc, argv, i);
    if (flag == "--seed") {
      cfg.seed = parse_number<std::uint64_t>("--seed", v);
    } else if (flag == "--metrics") {
      metrics_path = v;
    } else if (flag == "--trace") {
      trace_path = v;
    } else if (flag == "--mfr") {
      mfr_path = v;
    } else if (flag == "--prof") {
      prof_path = v;
    } else if (flag == "--loss") {
      cfg.fault_loss = parse_number<double>("--loss", v);
    } else if (flag == "--pacing-us") {
      const auto us = parse_number<Duration>("--pacing-us", v);
      if (us < 0 || us > std::numeric_limits<Duration>::max() / kMicrosecond) {
        throw FlagError("--pacing-us: out of range");
      }
      cfg.pacing = us * kMicrosecond;
    } else if (flag == "--threads") {
      cfg.threads = parse_number<int>("--threads", v);
    } else if (flag == "--int") {
      cfg.int_enable = true;
      cfg.int_sample_every =
          std::max(1u, parse_number<std::uint32_t>("--int", v));
    } else {
      throw FlagError("unknown flag " + flag);
    }
  }

  // --prof with parallel threads needs pacing: with the agents busy-looping
  // (pacing 0) the harness never opens an inter-poll window, the engine
  // never runs a round, and the profile's shard/round sections come back
  // empty — a silent trap. Default a small pacing and say so.
  if (!prof_path.empty() && cfg.threads > 1 && cfg.pacing <= 0) {
    cfg.pacing = 100 * kMicrosecond;
    std::printf("note: --prof with --threads %d defaults --pacing-us 100 "
                "(pacing > 0 opens the inter-poll windows the parallel "
                "engine profiles; pass --pacing-us explicitly to tune)\n",
                cfg.threads);
  }

  net::GrayFabricScenario scenario(cfg);
  if (!trace_path.empty()) scenario.loop().telemetry().tracer().set_enabled(true);
  // Wall-clock cost attribution only — the event log, metrics, and .mfr
  // dump stay byte-identical with profiling on (determinism contract).
  if (!prof_path.empty()) scenario.loop().telemetry().prof().set_enabled(true);
  // With --mfr, every fault transition (an anomaly class) dumps the flight
  // recorder; the file left behind reflects the final transition and is
  // byte-identical across same-seed runs.
  if (!mfr_path.empty()) {
    scenario.loop().telemetry().recorder().set_dump_path(mfr_path);
  }
  auto res = scenario.run();

  std::printf("leaf-spine 2x2, seed %llu: gray loss %.2f on %s (leaf0 port %d) "
              "at t=%lldns\n\n",
              static_cast<unsigned long long>(cfg.seed), cfg.fault_loss,
              res.fault_link_name.c_str(), res.faulted_port,
              static_cast<long long>(res.fault_at));
  std::printf("--- event log ---\n");
  for (const auto& e : res.events) std::printf("%s\n", e.c_str());

  auto us = [](Duration d) { return static_cast<double>(d) / kMicrosecond; };
  std::printf("\ndetect  +%.1fus  reroute +%.1fus  delivery restored +%.1fus\n",
              us(res.detection_latency()),
              res.rerouted_at < 0 ? -1.0 : us(res.rerouted_at - res.fault_at),
              us(res.restoration_latency()));
  std::printf("delivered %llu/%llu packets (%llu before the fault)\n",
              static_cast<unsigned long long>(res.delivered),
              static_cast<unsigned long long>(res.sent),
              static_cast<unsigned long long>(res.delivered_before_fault));

  if (scenario.int_fabric() != nullptr) {
    std::printf("\n--- INT sink summary (1/%u of flows) ---\n%s",
                cfg.int_sample_every,
                scenario.int_fabric()->summary().c_str());
  }

  // The degraded link's data direction drains once the reroute lands (only
  // the residual heartbeats remain on it).
  const auto& metrics = scenario.loop().telemetry().metrics();
  for (const char* dir : {"ab", "ba"}) {
    const auto* g = metrics.find_gauge("net.link." + res.fault_link_name + "." +
                                       dir + ".util");
    if (g != nullptr) {
      std::printf("degraded link util (%s, final window): %.4f\n", dir,
                  g->value());
    }
  }

  if (!metrics_path.empty()) {
    telemetry::ReportParams params;
    params.set("seed", static_cast<std::int64_t>(cfg.seed));
    params.set("fault_loss", cfg.fault_loss);
    scenario.loop().telemetry().write_metrics_json(metrics_path, "fabric_gray",
                                                   params);
    std::printf("metrics: %s\n", metrics_path.c_str());
  }

  if (!prof_path.empty()) {
    // One final counter-track sample so sequential runs (no engine rounds)
    // still render a prof lane in the Chrome export.
    scenario.loop().telemetry().prof().sample(scenario.loop().now());
    scenario.loop().telemetry().write_prof_json(prof_path);
    std::printf("profile: %s (render with p4r_inspect prof)\n",
                prof_path.c_str());
  }
  if (!trace_path.empty()) {
    scenario.loop().telemetry().write_trace_json(trace_path);
    std::printf("trace: %s (open in chrome://tracing or Perfetto)\n",
                trace_path.c_str());
  }
  if (!mfr_path.empty()) {
    std::printf("flight recorder: %s (inspect with p4r_inspect show)\n",
                mfr_path.c_str());
  }

  if (!res.restored()) {
    std::printf("FAIL: delivery never restored\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
