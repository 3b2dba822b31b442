// Fabric ECMP hash-polarization demo: NAT'd flows (identical src/dst
// address and srcPort, distinct dstPort) polarize onto one uplink of a
// 2-leaf/2-spine fabric under the initial (src, dst, srcPort) hash inputs.
// The per-switch hash-polarization reactions detect the imbalance from real
// per-egress counters and shift the malleable hash inputs to a
// configuration that includes dstPort, measurably rebalancing the link
// loads.
//
//   $ ./example_fabric_ecmp
//   $ ./example_fabric_ecmp --seed 7 --metrics m.json
//   $ ./example_fabric_ecmp --int 2   # INT on ~1/2 of the NAT'd flows
//
// Exits 1 if the fabric never rebalances (smoke check) and 2, after one
// "error:" line, on a bad flag or scenario setting.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "int/int_fabric.hpp"
#include "net/scenarios.hpp"
#include "telemetry/telemetry.hpp"
#include "util/flags.hpp"

namespace {

using namespace mantis;

int run(int argc, char** argv) {
  std::string metrics_path, prof_path;
  net::EcmpScenarioConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* v = flag_value(argc, argv, i);
    if (flag == "--seed") {
      cfg.seed = parse_number<std::uint64_t>("--seed", v);
    } else if (flag == "--metrics") {
      metrics_path = v;
    } else if (flag == "--prof") {
      prof_path = v;
    } else if (flag == "--flows") {
      cfg.flows = parse_number<int>("--flows", v);
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

  net::EcmpFabricScenario scenario(cfg);
  // Wall-clock cost attribution only; results stay byte-identical.
  if (!prof_path.empty()) scenario.loop().telemetry().prof().set_enabled(true);
  auto res = scenario.run();

  std::printf("leaf-spine 2x2 ECMP, %d flows distinct only in dstPort\n\n",
              cfg.flows);
  std::printf("--- event log ---\n");
  for (const auto& e : res.events) std::printf("%s\n", e.c_str());

  std::printf("\nmax uplink share: %.3f before first shift, %.3f after last "
              "(%llu shifts, first at t=%lldns)\n",
              res.share_before, res.share_after,
              static_cast<unsigned long long>(res.shifts),
              static_cast<long long>(res.first_shift_at));
  std::printf("delivered %llu/%llu packets\n",
              static_cast<unsigned long long>(res.delivered),
              static_cast<unsigned long long>(res.sent));

  if (scenario.int_fabric() != nullptr) {
    std::printf("\n--- INT sink summary (1/%u of flows) ---\n%s",
                cfg.int_sample_every,
                scenario.int_fabric()->summary().c_str());
  }

  if (!metrics_path.empty()) {
    telemetry::ReportParams params;
    params.set("seed", static_cast<std::int64_t>(cfg.seed));
    params.set("flows", static_cast<std::int64_t>(cfg.flows));
    scenario.loop().telemetry().write_metrics_json(metrics_path, "fabric_ecmp",
                                                   params);
    std::printf("metrics: %s\n", metrics_path.c_str());
  }

  if (!prof_path.empty()) {
    scenario.loop().telemetry().prof().sample(scenario.loop().now());
    scenario.loop().telemetry().write_prof_json(prof_path);
    std::printf("profile: %s (render with p4r_inspect prof)\n",
                prof_path.c_str());
  }

  if (!res.rebalanced()) {
    std::printf("FAIL: fabric never rebalanced\n");
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
