#include "int/scenario.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"

namespace mantis::int_tel {

IntGrayFabricScenario::IntGrayFabricScenario(IntGrayScenarioConfig cfg)
    // Same program as the heartbeat scenario (route table + tally): the INT
    // reaction rides the same gf_react slot, which keeps the head-to-head
    // comparison apples-to-apples on the data plane.
    : FabricScenario(cfg.leaves, cfg.spines, /*hosts_per_leaf=*/1,
                     gray_failure_program, cfg.seed, /*faults=*/true,
                     /*int_sample_every=*/1u),
      cfg_(std::move(cfg)) {
  expects(cfg_.leaves >= 3,
          "IntGrayFabricScenario: tomography needs >= 3 leaves (see config)");
  state_ = std::make_shared<apps::IntGrayState>();
  state_->topo = fabric_->topo();
  state_->collector = &int_fabric_->collector();
  state_->analyzer_node = 0;
  state_->on_localize = [this](int a, int b, Time t) {
    log_event(t, "localize link n" + std::to_string(a) + "-n" +
                     std::to_string(b));
    if (localized_at_ < 0) {
      localized_at_ = t;
      localized_a_ = a;
      localized_b_ = b;
    }
  };
  state_->on_routes_installed = [this](net::NodeId n, Time t) {
    log_event(t, std::string("n").append(std::to_string(n)).append(" reroute"));
    if (n == 0 && rerouted_at_ < 0) rerouted_at_ = t;
  };
  for (net::NodeId n = 0; n < fabric_->num_switches(); ++n) {
    harness_->agent_at(n).set_native_reaction(
        "gf_react", apps::make_int_gray_reaction(state_, n));
  }
}

IntGrayScenarioResult IntGrayFabricScenario::run() {
  expects(!ran_, "IntGrayFabricScenario::run: single-shot");
  ran_ = true;

  const FaultSite fault = schedule_first_hop_fault(
      cfg_.fault_at, cfg_.fault_loss, cfg_.inject_fault);

  // The probe mesh replaces the heartbeat mesh. Probes flowing during the
  // prologue are dropped by the not-yet-installed route tables, which only
  // delays the tomography's first full window.
  int_fabric_->start_probes(state_->cfg.probe_period, cfg_.run_until);
  state_->paths = int_fabric_->probe_paths();

  harness_->run_prologue([this](net::NodeId node, agent::ReactionContext& ctx) {
    state_->install_initial_routes(node, ctx);
  });

  const auto tracker = start_sequenced_traffic(
      cfg_.fault_at, cfg_.restore_consecutive, cfg_.run_until);
  run_fabric(cfg_.run_until, cfg_.threads);

  IntGrayScenarioResult res;
  res.fault_at = cfg_.fault_at;
  res.fault_link_name =
      fabric_->link(static_cast<std::size_t>(fault.link)).name();
  res.faulted_port = fault.port;
  res.localized_at = localized_at_;
  res.localized_a = localized_a_;
  res.localized_b = localized_b_;
  const auto& fl = fabric_->topo().links[static_cast<std::size_t>(fault.link)];
  res.localized_correct =
      localized_at_ >= 0 &&
      std::minmax(fl.a, fl.b) == std::minmax(localized_a_, localized_b_);
  res.rerouted_at = rerouted_at_;
  res.restored_at = tracker->restored_at;
  res.sent = tracker->sent_at.size();
  res.delivered = tracker->delivered;
  res.delivered_before_fault = tracker->delivered_before_fault;
  res.int_reports = int_fabric_->collector().size();
  res.probes_sent = int_fabric_->probes_sent();
  res.stack_wire_bytes = int_fabric_->stack_wire_bytes();
  // Probe frames as injected on their first link (lost probes never reach
  // the second one, so this is the injection-side cost).
  res.probe_wire_bytes =
      res.probes_sent *
      (int_fabric_->config().probe_bytes + kHeaderBytes + kHopBytes);
  res.events = merged_events();

  set_us_gauge("net.scenario.intgray.localized_us", res.fault_at,
               res.localized_at);
  set_us_gauge("net.scenario.intgray.rerouted_us", res.fault_at,
               res.rerouted_at);
  set_us_gauge("net.scenario.intgray.restored_us", res.fault_at,
               res.restored_at);
  loop_.telemetry().metrics().gauge("net.scenario.intgray.reports")
      .set(static_cast<double>(res.int_reports));
  return res;
}

}  // namespace mantis::int_tel
