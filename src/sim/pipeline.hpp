// One match-action pipeline (ingress or egress): walks the image's compiled
// control block, looks up tables by id, and executes the winning actions on
// the packet.
#pragma once

#include <cstdint>
#include <vector>

#include "p4/ir.hpp"
#include "sim/action_exec.hpp"
#include "sim/switch_image.hpp"
#include "sim/table_state.hpp"

namespace mantis::telemetry {
class ProvenanceContext;
}

namespace mantis::sim {

class Pipeline {
 public:
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t table_hits = 0;
    std::uint64_t table_misses = 0;
  };

  /// `tables` must outlive the pipeline and hold one state per table of
  /// the image, indexed by TableId. `prov`, when set, gets the provenance
  /// stamp of every winning rule (first-effect detection).
  Pipeline(const SwitchImage& image, p4::Gress gress,
           std::vector<TableState>& tables, RegisterFile& regs,
           telemetry::ProvenanceContext* prov = nullptr);

  /// Runs the control block over the packet. Matches RMT semantics: a drop
  /// marks the packet but the remaining stages still execute.
  void process(Packet& pkt);

  const Stats& stats() const { return stats_; }

 private:
  const SwitchImage* image_;
  const std::vector<ControlStep>* steps_;
  std::vector<TableState>* tables_;
  ActionExecutor exec_;
  telemetry::ProvenanceContext* prov_;
  Stats stats_;

  void run(std::uint32_t begin, std::uint32_t end, Packet& pkt);
};

}  // namespace mantis::sim
