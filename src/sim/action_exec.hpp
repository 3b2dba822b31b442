// Executes P4 actions (sequences of primitive ops) against a packet,
// register file, and runtime action arguments. Also home to the hash
// algorithms backing field_list_calculations.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "p4/ir.hpp"
#include "sim/packet.hpp"
#include "sim/register_file.hpp"
#include "sim/switch_image.hpp"

namespace mantis::sim {

/// Computes a field-list hash over a packet. Supported algorithms:
/// "crc32", "crc16", "identity" (low bits of concatenation), "xor_fold".
std::uint64_t compute_hash(const p4::Program& prog, const p4::HashCalcDecl& calc,
                           const p4::FieldListDecl& list, const Packet& pkt);

/// By name: looks up `calc`'s field list in `prog` first.
std::uint64_t compute_hash(const p4::Program& prog, const p4::HashCalcDecl& calc,
                           const Packet& pkt);

/// CRC-32 (reflected, poly 0xEDB88320) over a byte span — exposed so
/// baselines (count-min sketch rows) hash identically to the data plane.
std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed = 0);

/// CRC-16/ARC (reflected, poly 0xA001).
std::uint16_t crc16(std::span<const std::uint8_t> bytes, std::uint16_t seed = 0);

class ActionExecutor {
 public:
  ActionExecutor(const p4::Program& prog, RegisterFile& regs)
      : prog_(&prog), regs_(&regs) {}

  /// Runs `action` with `args` on `pkt`; `objects` holds each instruction's
  /// resolved register, counter or hash calc (SwitchImage::objects).
  /// Arithmetic wraps at each destination field's width, as on RMT ALUs.
  void execute(const p4::ActionDecl& action, std::span<const ObjectRef> objects,
               std::span<const std::uint64_t> args, Packet& pkt);

  /// By name: resolves the action's objects against the program first.
  void execute(const p4::ActionDecl& action, std::span<const std::uint64_t> args,
               Packet& pkt) {
    execute(action, resolve_objects(*prog_, action), args, pkt);
  }

 private:
  const p4::Program* prog_;
  RegisterFile* regs_;

  std::uint64_t eval(const p4::Operand& o, std::span<const std::uint64_t> args,
                     const Packet& pkt) const;
};

/// Evaluates an IR conditional over a packet (used by control-flow If nodes).
bool eval_condition(const p4::Program& prog, const p4::CondExpr& cond,
                    const Packet& pkt);

}  // namespace mantis::sim
