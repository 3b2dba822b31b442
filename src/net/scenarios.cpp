#include "net/scenarios.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "int/int_fabric.hpp"
#include "net/engine.hpp"
#include "util/check.hpp"

namespace mantis::net {

namespace {

/// Periodic windowed-utilization sampling (scenario-driven; the Fabric never
/// schedules events itself).
struct SampleTick {
  sim::EventLoop* loop = nullptr;
  Fabric* fabric = nullptr;
  Duration period = 0;
  Time until = 0;

  void operator()() const {
    if (loop->now() > until) return;
    fabric->sample_telemetry();
    loop->schedule_in(period, *this);
  }
};

constexpr Duration kTelemetryWindow = 50 * kMicrosecond;

std::optional<std::uint32_t> int_sampling(bool enable, std::uint32_t every) {
  return enable ? std::optional<std::uint32_t>(every) : std::nullopt;
}

agent::AgentOptions paced(agent::AgentOptions agent, Duration pacing) {
  agent.pacing_sleep = pacing;
  return agent;
}

}  // namespace

// ---------------------------------------------------------------------------
// DeliveryTracker
// ---------------------------------------------------------------------------

DeliveryTracker::DeliveryTracker(Time fault_at, int restore_consecutive)
    : fault_at(fault_at), k(static_cast<std::size_t>(restore_consecutive)) {
  expects(restore_consecutive >= 1,
          "DeliveryTracker: restore_consecutive must be >= 1");
}

void DeliveryTracker::on_receive(std::uint64_t seq, Time sent_time,
                                 Time rx_time) {
  ++delivered;
  if (sent_time >= 0 && sent_time < fault_at) {
    ++delivered_before_fault;
    recent.clear();  // a pre-fault straggler breaks any post-fault run
    return;
  }
  recent.emplace_back(seq, rx_time);
  if (recent.size() > k) recent.pop_front();
  if (restored_at >= 0 || recent.size() < k) return;
  for (std::size_t i = 1; i < recent.size(); ++i) {
    if (recent[i].first != recent[i - 1].first + 1) return;
  }
  restored_at = recent.front().second;
}

// ---------------------------------------------------------------------------
// FabricScenario
// ---------------------------------------------------------------------------

FabricScenario::FabricScenario(int leaves, int spines, int hosts_per_leaf,
                               std::string (*program)(const Topology&),
                               std::uint64_t seed, bool faults,
                               std::optional<std::uint32_t> int_sample_every,
                               const agent::AgentOptions& agent,
                               const LinkModel& link,
                               const sim::SwitchConfig& switch_cfg) {
  expects(leaves >= 2 && spines >= 2,
          "FabricScenario: need an alternate path (>=2 leaves, >=2 spines)");
  Topology topo = Topology::leaf_spine(leaves, spines, hosts_per_leaf);
  src_host_ = topo.num_switches;
  dst_host_ = topo.num_switches + hosts_per_leaf;
  artifacts_ = compile::compile_source(program(topo));
  FabricConfig fc;
  fc.switch_cfg = switch_cfg;
  fc.default_link = link;
  fc.base_seed = seed;
  fabric_ = std::make_unique<Fabric>(loop_, artifacts_.prog, std::move(topo),
                                     std::move(fc));
  if (faults) injector_ = std::make_unique<FaultInjector>(*fabric_);
  if (int_sample_every) {
    int_tel::IntFabricConfig ic;
    ic.sample_every = *int_sample_every;
    int_fabric_ = std::make_unique<int_tel::IntFabric>(*fabric_, ic);
  }
  harness_ = std::make_unique<FabricAgentHarness>(*fabric_, artifacts_, agent);
  harness_->add_all_switches();
}

FabricScenario::~FabricScenario() = default;

std::string FabricScenario::gray_failure_program(const Topology& topo) {
  int monitored = 8;
  for (NodeId n = 0; n < topo.num_switches; ++n) {
    for (const int p : topo.switch_facing_ports(n)) {
      monitored = std::max(monitored, p + 1);
    }
  }
  return apps::gray_failure_p4r_source(monitored);
}

FabricScenario::FaultSite FabricScenario::schedule_first_hop_fault(
    Time at, double loss, bool inject) {
  const auto& topo = fabric_->topo();
  const std::uint32_t dst_addr = fabric_->host_at(dst_host_).address();
  FaultSite site;
  site.port = topo.compute_routes_from(0, {}).at(dst_addr);
  expects(site.port >= 0, "FabricScenario: destination unreachable");
  site.link = fabric_->link_at(0, site.port);
  expects(site.link >= 0, "FabricScenario: no link on faulted port");

  if (inject) {
    FaultSpec fault;
    fault.kind = FaultSpec::Kind::kGrayLoss;
    fault.link = static_cast<std::size_t>(site.link);
    fault.direction = -1;  // symmetric gray failure
    fault.at = at;
    fault.duration = 0;  // permanent; the reroute is the recovery
    fault.loss = loss;
    injector_->schedule(fault);
  }
  return site;
}

std::shared_ptr<const DeliveryTracker> FabricScenario::start_sequenced_traffic(
    Time fault_at, int restore_consecutive, Time until) {
  expects(loop_.now() < fault_at,
          "FabricScenario: prologues overran fault_at; raise fault_at");
  auto tracker = std::make_shared<DeliveryTracker>(fault_at, restore_consecutive);
  const std::uint32_t src_addr = fabric_->host_at(src_host_).address();
  const std::uint32_t dst_addr = fabric_->host_at(dst_host_).address();
  fabric_->start_host_traffic(
      src_host_, 1 * kMicrosecond, until,
      [this, tracker, src_addr, dst_addr]() {
        auto pkt = fabric_->factory().make(1000);
        fabric_->factory().set(pkt, "ipv4.srcAddr", src_addr);
        fabric_->factory().set(pkt, "ipv4.dstAddr", dst_addr);
        fabric_->factory().set(pkt, "ipv4.protocol", 6);
        fabric_->factory().set(pkt, "ipv4.totalLen", tracker->sent_at.size());
        tracker->sent_at.push_back(loop_.now());
        return pkt;
      });
  fabric_->host_at(dst_host_).set_on_receive(
      [this, tracker](const sim::Packet& pkt, Time t) {
        // INT probes also land here (stripped); only sequenced data counts.
        if (fabric_->factory().get(pkt, "ipv4.protocol") == 254) return;
        const Time before = tracker->restored_at;
        tracker->on_receive(fabric_->factory().get(pkt, "ipv4.totalLen"),
                            pkt.origin_time(), t);
        if (before < 0 && tracker->restored_at >= 0) {
          log_event(tracker->restored_at, "delivery restored");
        }
      });
  return tracker;
}

void FabricScenario::run_fabric(Time until, int threads) {
  loop_.schedule_in(kTelemetryWindow, SampleTick{&loop_, fabric_.get(),
                                                 kTelemetryWindow, until});
  ParallelFabricEngine engine(*fabric_, threads);
  harness_->run_until(until, engine);
  fabric_->sample_telemetry();
}

void FabricScenario::log_event(Time t, const std::string& what) {
  events_.push_back(std::to_string(t) + " " + what);
}

std::vector<std::string> FabricScenario::merged_events() const {
  std::vector<std::string> all;
  if (injector_) all = injector_->log();
  all.insert(all.end(), events_.begin(), events_.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const std::string& x, const std::string& y) {
                     return std::strtoll(x.c_str(), nullptr, 10) <
                            std::strtoll(y.c_str(), nullptr, 10);
                   });
  return all;
}

void FabricScenario::set_us_gauge(const std::string& name, Time from, Time to) {
  loop_.telemetry().metrics().gauge(name).set(
      to < 0 ? -1.0 : static_cast<double>(to - from) / kMicrosecond);
}

// ---------------------------------------------------------------------------
// GrayFabricScenario
// ---------------------------------------------------------------------------

GrayFabricScenario::GrayFabricScenario(GrayScenarioConfig cfg)
    : FabricScenario(cfg.leaves, cfg.spines, /*hosts_per_leaf=*/1,
                     gray_failure_program, cfg.seed, /*faults=*/true,
                     int_sampling(cfg.int_enable, cfg.int_sample_every),
                     paced(cfg.agent, cfg.pacing), cfg.link, cfg.switch_cfg),
      cfg_(std::move(cfg)) {
  for (NodeId n = 0; n < fabric_->num_switches(); ++n) {
    auto st = std::make_shared<apps::GrayFailureState>();
    st->cfg = cfg_.gf;
    st->cfg.num_ports = static_cast<int>(
        fabric_->topo().switch_facing_ports(n).size());
    st->cfg.ts = cfg_.hb_period;
    st->topo = fabric_->topo();
    st->self_node = n;
    st->on_detect = [this, n](int port, Time t) {
      log_event(t, "n" + std::to_string(n) + " detect port" +
                       std::to_string(port));
      if (n == 0 && detected_at_ < 0) detected_at_ = t;
    };
    st->on_routes_installed = [this, n](Time t) {
      log_event(t, "n" + std::to_string(n) + " reroute");
      if (n == 0 && rerouted_at_ < 0) rerouted_at_ = t;
    };
    harness_->agent_at(n).set_native_reaction(
        "gf_react", apps::make_gray_failure_reaction(st));
    states_.push_back(std::move(st));
  }
}

GrayScenarioResult GrayFabricScenario::run() {
  expects(!ran_, "GrayFabricScenario::run: single-shot");
  ran_ = true;

  const FaultSite fault = schedule_first_hop_fault(
      cfg_.fault_at, cfg_.fault_loss, cfg_.inject_fault);

  // Link-local heartbeats (proto 253) in both directions of every
  // switch-switch link, flowing from t=0 so the detectors' very first poll
  // window is already fed. They traverse the real (faultable) links.
  const auto& topo = fabric_->topo();
  for (const auto& l : topo.links) {
    if (!topo.is_switch(l.a) || !topo.is_switch(l.b)) continue;
    auto make_hb = [this]() {
      auto pkt = fabric_->factory().make(64);
      fabric_->factory().set(pkt, "ipv4.protocol", 253);
      hb_sent_.fetch_add(1, std::memory_order_relaxed);
      hb_bytes_.fetch_add(pkt.length_bytes(), std::memory_order_relaxed);
      return pkt;
    };
    fabric_->start_periodic(l.a, l.b, cfg_.hb_period, cfg_.run_until, make_hb);
    fabric_->start_periodic(l.b, l.a, cfg_.hb_period, cfg_.run_until, make_hb);
  }

  // Prologues install each switch's initial routes + heartbeat tally entry.
  harness_->run_prologue([this](NodeId node, agent::ReactionContext& ctx) {
    states_[static_cast<std::size_t>(node)]->install_initial_routes(ctx);
  });

  const auto tracker = start_sequenced_traffic(
      cfg_.fault_at, cfg_.restore_consecutive, cfg_.run_until);
  run_fabric(cfg_.run_until, cfg_.threads);

  GrayScenarioResult res;
  res.fault_at = cfg_.fault_at;
  res.fault_link_name = fabric_->link(static_cast<std::size_t>(fault.link)).name();
  res.faulted_port = fault.port;
  res.detected_at = detected_at_;
  res.rerouted_at = rerouted_at_;
  res.restored_at = tracker->restored_at;
  res.sent = tracker->sent_at.size();
  res.delivered = tracker->delivered;
  res.delivered_before_fault = tracker->delivered_before_fault;
  res.hb_sent = hb_sent_.load(std::memory_order_relaxed);
  res.hb_bytes = hb_bytes_.load(std::memory_order_relaxed);
  if (int_fabric_) res.int_reports = int_fabric_->collector().size();
  res.events = merged_events();

  set_us_gauge("net.scenario.gray.detected_us", res.fault_at, res.detected_at);
  set_us_gauge("net.scenario.gray.rerouted_us", res.fault_at, res.rerouted_at);
  set_us_gauge("net.scenario.gray.restored_us", res.fault_at, res.restored_at);
  loop_.telemetry().metrics().gauge("net.scenario.gray.delivered_pkts")
      .set(static_cast<double>(res.delivered));
  return res;
}

// ---------------------------------------------------------------------------
// EcmpFabricScenario
// ---------------------------------------------------------------------------

namespace {

constexpr int kEcmpLeaves = 2;
constexpr int kEcmpSpines = 2;
constexpr Time kEcmpRunUntil = 500 * kMicrosecond;

/// Max share of any entry in (end - start), or 0 when nothing flowed.
double max_share(const std::vector<std::uint64_t>& start,
                 const std::vector<std::uint64_t>& end) {
  std::uint64_t total = 0, max_delta = 0;
  for (std::size_t i = 0; i < start.size(); ++i) {
    const std::uint64_t d = end[i] - start[i];
    total += d;
    max_delta = std::max(max_delta, d);
  }
  return total == 0 ? 0.0
                    : static_cast<double>(max_delta) / static_cast<double>(total);
}

}  // namespace

EcmpFabricScenario::EcmpFabricScenario(EcmpScenarioConfig cfg)
    : FabricScenario(kEcmpLeaves, kEcmpSpines, /*hosts_per_leaf=*/2,
                     [](const Topology&) {
                       return apps::hash_polarization_fabric_p4r_source(
                           kEcmpSpines);
                     },
                     cfg.seed, /*faults=*/false,
                     int_sampling(cfg.int_enable, cfg.int_sample_every)),
      cfg_(std::move(cfg)) {
  expects(cfg_.flows >= 2, "EcmpFabricScenario: need >=2 flows");
  for (NodeId n = 0; n < fabric_->num_switches(); ++n) {
    auto st = std::make_shared<apps::HashPolState>();
    // The config cycle is trimmed to spreading configurations: every
    // non-initial triple includes dstPort, the one field the flows differ in.
    st->cfg.configs = {{0, 0, 0}, {1, 0, 1}, {0, 1, 1}};
    st->cfg.num_ports = static_cast<int>(
        fabric_->topo().switch_facing_ports(n).size());
    st->on_shift = [this, n](std::size_t config, Time t) {
      log_event(t, "n" + std::to_string(n) + " shift config" +
                       std::to_string(config));
      ++shifts_total_;
      if (n == 0) shift_snaps_.push_back({t, uplink_tx()});
    };
    harness_->agent_at(n).set_native_reaction(
        "hp_react", apps::make_hash_pol_reaction(st));
    states_.push_back(std::move(st));
  }
}

std::vector<std::uint64_t> EcmpFabricScenario::uplink_tx() const {
  std::vector<std::uint64_t> tx;
  for (int s = 0; s < kEcmpSpines; ++s) {
    auto& l = fabric_->link_between(0, kEcmpLeaves + s);
    tx.push_back(l.dir_stats(l.direction_from(0)).tx_pkts);
  }
  return tx;
}

EcmpScenarioResult EcmpFabricScenario::run() {
  expects(!ran_, "EcmpFabricScenario::run: single-shot");
  ran_ = true;

  // Prologue: leaves install route entries for their *local* hosts only
  // (remote traffic falls through to ECMP); spines for every destination.
  Fabric& fabric = *fabric_;
  harness_->run_prologue([&fabric](NodeId node, agent::ReactionContext& ctx) {
    for (const auto& [addr, host] : fabric.topo().dst_node) {
      // Hosts share their leaf's shard.
      const NodeId leaf = fabric.shard_of(host);
      if (node < kEcmpLeaves && leaf != node) continue;
      const NodeId toward = node < kEcmpLeaves ? host : leaf;
      const int port = fabric.link_between(node, toward).end_of(node).port;
      p4::EntrySpec spec;
      spec.key.push_back(p4::MatchValue{addr, ~std::uint64_t{0}});
      spec.action = "set_egress";
      spec.action_args = {static_cast<std::uint64_t>(port)};
      ctx.add_entry("route", spec);
    }
  });

  // NAT'd flows: identical srcAddr/dstAddr/srcPort, distinct dstPort — the
  // initial (src, dst, srcPort) hash inputs polarize them all onto one
  // uplink; any shifted configuration includes dstPort and spreads them.
  const std::uint32_t src_addr = fabric_->host_at(src_host_).address();
  const std::uint32_t dst_addr = fabric_->host_at(dst_host_).address();
  auto sent = std::make_shared<std::uint64_t>(0);
  fabric_->start_host_traffic(
      src_host_, 250, kEcmpRunUntil, [this, sent, src_addr, dst_addr]() {
        auto pkt = fabric_->factory().make(500);
        fabric_->factory().set(pkt, "ipv4.srcAddr", src_addr);
        fabric_->factory().set(pkt, "ipv4.dstAddr", dst_addr);
        fabric_->factory().set(pkt, "ipv4.protocol", 6);
        fabric_->factory().set(pkt, "l4.srcPort", 5555);
        fabric_->factory().set(
            pkt, "l4.dstPort",
            1000 + *sent % static_cast<std::uint64_t>(cfg_.flows));
        ++*sent;
        return pkt;
      });
  auto delivered = std::make_shared<std::uint64_t>(0);
  fabric_->host_at(dst_host_).set_on_receive(
      [delivered](const sim::Packet&, Time) { ++*delivered; });

  const auto tx_start = uplink_tx();
  run_fabric(kEcmpRunUntil, cfg_.threads);
  const auto tx_end = uplink_tx();

  EcmpScenarioResult res;
  res.shifts = shifts_total_;
  res.sent = *sent;
  res.delivered = *delivered;
  if (int_fabric_) res.int_reports = int_fabric_->collector().size();
  res.events = merged_events();
  if (shift_snaps_.empty()) {
    res.share_before = max_share(tx_start, tx_end);
    res.share_after = res.share_before;
  } else {
    res.first_shift_at = shift_snaps_.front().t;
    res.share_before = max_share(tx_start, shift_snaps_.front().tx);
    res.share_after = max_share(shift_snaps_.back().tx, tx_end);
  }

  auto& metrics = loop_.telemetry().metrics();
  metrics.gauge("net.scenario.ecmp.share_before").set(res.share_before);
  metrics.gauge("net.scenario.ecmp.share_after").set(res.share_after);
  set_us_gauge("net.scenario.ecmp.first_shift_us", 0, res.first_shift_at);
  metrics.gauge("net.scenario.ecmp.shifts").set(static_cast<double>(res.shifts));
  return res;
}

}  // namespace mantis::net
