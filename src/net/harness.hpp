// One Mantis agent per fabric switch, each with its own driver, all on the
// shared EventLoop. The harness schedules dialogue iterations by per-agent
// due time (earliest due runs next), so reactions on different switches
// interleave in virtual time: while one agent's iteration blocks on its
// driver, every other switch's packets keep flowing, and pacing sleeps
// overlap across agents instead of serializing.
//
// Modeling note: iteration *bodies* serialize on the shared virtual clock —
// the fabric behaves as if the per-switch control CPUs never run their
// critical work at the same instant. Contention therefore stretches each
// agent's effective poll window T_d to about (num_agents x iteration
// latency) when every agent busy-loops; docs/NETWORK.md discusses the
// implications for detection-latency figures.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "agent/agent.hpp"
#include "net/fabric.hpp"

namespace mantis::net {

class ParallelFabricEngine;

class FabricAgentHarness {
 public:
  /// `artifacts` (shared by every switch: homogeneous fabric) must outlive
  /// the harness. `agent` applies to every agent, except that its
  /// `pacing_sleep` is lifted out and applied by the harness scheduler
  /// (between an agent's iterations, overlapping other agents) rather than
  /// inside each agent (which would serialize sleeps).
  FabricAgentHarness(Fabric& fabric, const compile::Artifacts& artifacts,
                     agent::AgentOptions agent = {});

  /// Attaches a driver + agent to one switch. Order of addition is the
  /// scheduler's tie-break order.
  agent::Agent& add_agent(NodeId node);
  void add_all_switches();

  bool has_agent(NodeId node) const;
  agent::Agent& agent_at(NodeId node);
  driver::Driver& driver_at(NodeId node);
  std::size_t num_agents() const { return members_.size(); }
  const std::vector<NodeId>& nodes() const { return nodes_; }

  /// Runs every agent's prologue (in addition order); `user_init`, when
  /// given, is invoked per agent with its node id.
  void run_prologue(
      const std::function<void(NodeId, agent::ReactionContext&)>& user_init = {});

  /// Interleaves dialogue iterations across agents until virtual time `t`:
  /// repeatedly runs the earliest-due agent, then drains remaining events
  /// up to `t` through `engine`. Dialogue iterations themselves always run
  /// inline on the calling thread, between engine rounds; driver waits
  /// inside an iteration drain sequentially.
  void run_until(Time t, ParallelFabricEngine& engine);

  std::uint64_t iterations(NodeId node) const;
  std::uint64_t total_iterations() const;

 private:
  struct Member {
    NodeId node = -1;
    std::unique_ptr<driver::Driver> driver;
    std::unique_ptr<agent::Agent> agent;
    Time next_due = 0;
    std::uint64_t iterations = 0;
  };

  Member& member_at(NodeId node);
  const Member& member_at(NodeId node) const;

  Fabric* fabric_;
  const compile::Artifacts* artifacts_;
  agent::AgentOptions agent_opts_;
  Duration pacing_ = 0;
  std::vector<Member> members_;
  std::vector<NodeId> nodes_;
};

}  // namespace mantis::net
