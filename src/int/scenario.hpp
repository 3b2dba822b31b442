// INT gray-failure scenario: the head-to-head counterpart of
// net::GrayFabricScenario with the heartbeat mesh replaced by the INT probe
// mesh + loss tomography (apps/int_gray_localization.hpp).
//
// Same leaf-spine fabric, same faultable links, same end-to-end restoration
// measurement; what differs is the detection machinery — instead of each
// switch counting neighbour heartbeats, leaf sinks export INT reports and
// one analyzer localizes the *specific lossy link* from per-path seq gaps.
// That buys two things a heartbeat scheme cannot give:
//   * localization (the link, not just "my port is quiet"), and
//   * sensitivity below the heartbeat threshold (a 35%-loss link still
//     delivers most heartbeats, so an eta=0.5 detector never fires; the
//     tomography sees the exact per-path loss rate).
// bench/bench_int_vs_heartbeat.cpp runs both scenarios on the same fabric
// shape and compares detection latency, localization and byte overhead.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/int_gray_localization.hpp"
#include "int/int_fabric.hpp"
#include "net/scenarios.hpp"

namespace mantis::int_tel {

struct IntGrayScenarioConfig {
  /// >= 3 leaves: with two leaves every failing path shares *both* its
  /// links with every other failing path through the same spine, so
  /// tomography cannot disambiguate; a third leaf provides the exonerating
  /// cross-paths.
  int leaves = 3;
  int spines = 2;
  std::uint64_t seed = 1;

  /// Five switches' prologues take longer than the four-switch gray
  /// scenario's, hence the later default fault time.
  Time fault_at = 200 * kMicrosecond;
  double fault_loss = 1.0;
  bool inject_fault = true;

  int threads = 1;  ///< fabric-engine workers (1 = sequential, same results)
  Time run_until = 500 * kMicrosecond;

  int restore_consecutive = 4;
};

struct IntGrayScenarioResult {
  Time fault_at = -1;
  std::string fault_link_name;
  int faulted_port = -1;

  Time localized_at = -1;    ///< analyzer declares a link down
  int localized_a = -1;      ///< declared link endpoints (canonical order)
  int localized_b = -1;
  bool localized_correct = false;  ///< declared == injected link
  Time rerouted_at = -1;     ///< sending leaf's new routes installed
  Time restored_at = -1;

  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t delivered_before_fault = 0;

  std::uint64_t int_reports = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t stack_wire_bytes = 0;  ///< INT stack bytes that crossed links
  std::uint64_t probe_wire_bytes = 0;  ///< probe frames incl. stacks, on-wire

  std::vector<std::string> events;

  bool restored() const { return restored_at >= 0; }
  Duration detection_latency() const {
    return localized_at < 0 ? -1 : localized_at - fault_at;
  }
  Duration restoration_latency() const {
    return restored_at < 0 ? -1 : restored_at - fault_at;
  }
};

class IntGrayFabricScenario : public net::FabricScenario {
 public:
  explicit IntGrayFabricScenario(IntGrayScenarioConfig cfg = {});

  /// Single-shot. Publishes net.scenario.intgray.{localized_us,rerouted_us,
  /// restored_us,reports} gauges on the loop's registry.
  IntGrayScenarioResult run();

  net::FaultInjector& injector() { return *injector_; }
  IntFabric& int_fabric() { return *int_fabric_; }

 private:
  IntGrayScenarioConfig cfg_;
  std::shared_ptr<apps::IntGrayState> state_;
  Time localized_at_ = -1;
  int localized_a_ = -1;
  int localized_b_ = -1;
  Time rerouted_at_ = -1;
};

}  // namespace mantis::int_tel
