#include "net/harness.hpp"

#include <utility>

#include "net/engine.hpp"
#include "util/check.hpp"

namespace mantis::net {

FabricAgentHarness::FabricAgentHarness(Fabric& fabric,
                                       const compile::Artifacts& artifacts,
                                       agent::AgentOptions agent)
    : fabric_(&fabric), artifacts_(&artifacts), agent_opts_(std::move(agent)) {
  // The harness owns pacing so sleeps overlap across agents; an agent-level
  // pacing_sleep would advance the shared clock with every other agent idle.
  pacing_ = agent_opts_.pacing_sleep;
  agent_opts_.pacing_sleep = 0;
}

agent::Agent& FabricAgentHarness::add_agent(NodeId node) {
  expects(!has_agent(node), "FabricAgentHarness: agent already attached");
  Member m;
  m.node = node;
  m.driver = std::make_unique<driver::Driver>(fabric_->switch_at(node));
  m.agent = std::make_unique<agent::Agent>(*m.driver, *artifacts_, agent_opts_);
  m.next_due = fabric_->loop().now();
  members_.push_back(std::move(m));
  nodes_.push_back(node);
  return *members_.back().agent;
}

void FabricAgentHarness::add_all_switches() {
  for (NodeId n = 0; n < fabric_->num_switches(); ++n) add_agent(n);
}

bool FabricAgentHarness::has_agent(NodeId node) const {
  for (const auto& m : members_) {
    if (m.node == node) return true;
  }
  return false;
}

FabricAgentHarness::Member& FabricAgentHarness::member_at(NodeId node) {
  for (auto& m : members_) {
    if (m.node == node) return m;
  }
  throw UserError("FabricAgentHarness: no agent on node " +
                  std::to_string(node));
}

const FabricAgentHarness::Member& FabricAgentHarness::member_at(
    NodeId node) const {
  for (const auto& m : members_) {
    if (m.node == node) return m;
  }
  throw UserError("FabricAgentHarness: no agent on node " +
                  std::to_string(node));
}

agent::Agent& FabricAgentHarness::agent_at(NodeId node) {
  return *member_at(node).agent;
}

driver::Driver& FabricAgentHarness::driver_at(NodeId node) {
  return *member_at(node).driver;
}

void FabricAgentHarness::run_prologue(
    const std::function<void(NodeId, agent::ReactionContext&)>& user_init) {
  for (auto& m : members_) {
    const NodeId node = m.node;
    if (user_init) {
      m.agent->run_prologue(
          [&user_init, node](agent::ReactionContext& ctx) { user_init(node, ctx); });
    } else {
      m.agent->run_prologue();
    }
    m.next_due = fabric_->loop().now();
  }
}

void FabricAgentHarness::run_until(Time t, ParallelFabricEngine& engine) {
  auto& loop = fabric_->loop();
  while (!members_.empty()) {
    Member* next = nullptr;
    for (auto& m : members_) {
      if (next == nullptr || m.next_due < next->next_due) next = &m;
    }
    if (next->next_due >= t) break;
    if (next->next_due > loop.now()) engine.run_until(next->next_due);
    next->agent->dialogue_iteration();
    ++next->iterations;
    next->next_due = loop.now() + pacing_;
  }
  // The last iteration may already have overrun `t`.
  if (t > loop.now()) engine.run_until(t);
}

std::uint64_t FabricAgentHarness::iterations(NodeId node) const {
  return member_at(node).iterations;
}

std::uint64_t FabricAgentHarness::total_iterations() const {
  std::uint64_t total = 0;
  for (const auto& m : members_) total += m.iterations;
  return total;
}

}  // namespace mantis::net
