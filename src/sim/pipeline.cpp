#include "sim/pipeline.hpp"

#include "telemetry/provenance.hpp"

namespace mantis::sim {

Pipeline::Pipeline(const SwitchImage& image, p4::Gress gress,
                   std::vector<TableState>& tables, RegisterFile& regs,
                   telemetry::ProvenanceContext* prov)
    : image_(&image), steps_(&image.control(gress)), tables_(&tables),
      exec_(image.program(), regs), prov_(prov) {}

void Pipeline::run(std::uint32_t begin, std::uint32_t end, Packet& pkt) {
  const p4::Program& prog = image_->program();
  for (std::uint32_t i = begin; i < end;) {
    const ControlStep& step = (*steps_)[i];
    if (step.cond != nullptr) {
      if (eval_condition(prog, *step.cond, pkt)) {
        run(i + 1, step.else_at, pkt);
      } else {
        run(step.else_at, step.end_at, pkt);
      }
      i = step.end_at;
      continue;
    }
    const auto result = (*tables_)[step.table].lookup(pkt);
    if (prov_ != nullptr) prov_->note_hit(result.provenance);
    if (result.hit) {
      ++stats_.table_hits;
    } else {
      ++stats_.table_misses;
    }
    exec_.execute(prog.actions[result.action], image_->objects(result.action),
                  result.args, pkt);
    ++i;
  }
}

void Pipeline::process(Packet& pkt) {
  ++stats_.packets;
  run(0, static_cast<std::uint32_t>(steps_->size()), pkt);
}

}  // namespace mantis::sim
