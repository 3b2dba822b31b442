#include "sim/action_exec.hpp"

#include "util/bits.hpp"

namespace mantis::sim {

std::uint32_t crc32(std::span<const std::uint8_t> bytes, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (const std::uint8_t b : bytes) {
    crc ^= b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
    }
  }
  return ~crc;
}

std::uint16_t crc16(std::span<const std::uint8_t> bytes, std::uint16_t seed) {
  std::uint16_t crc = seed;
  for (const std::uint8_t b : bytes) {
    crc = static_cast<std::uint16_t>(crc ^ b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = static_cast<std::uint16_t>((crc >> 1) ^ (0xA001u & (~(crc & 1u) + 1u)));
    }
  }
  return crc;
}

namespace {

/// Serializes the field-list values (big-endian per field, whole bytes) so
/// hash results are stable across field widths.
std::vector<std::uint8_t> serialize_fields(const p4::Program& prog,
                                           const p4::FieldListDecl& fl,
                                           const Packet& pkt) {
  std::vector<std::uint8_t> bytes;
  for (const auto& entry : fl.fields) {
    ensures(!entry.is_malleable(),
            "serialize_fields: malleable survived compilation in " + fl.name);
    const auto f = entry.field;
    const auto width = prog.fields.width(f);
    const auto nbytes = bits_to_bytes(width);
    const std::uint64_t v = pkt.get(f);
    for (std::uint64_t i = nbytes; i-- > 0;) {
      bytes.push_back(static_cast<std::uint8_t>((v >> (i * 8)) & 0xff));
    }
  }
  return bytes;
}

}  // namespace

std::uint64_t compute_hash(const p4::Program& prog, const p4::HashCalcDecl& calc,
                           const Packet& pkt) {
  const auto* fl = prog.find_field_list(calc.field_list);
  ensures(fl != nullptr, "compute_hash: missing field list " + calc.field_list);
  return compute_hash(prog, calc, *fl, pkt);
}

std::uint64_t compute_hash(const p4::Program& prog, const p4::HashCalcDecl& calc,
                           const p4::FieldListDecl& list, const Packet& pkt) {
  const auto bytes = serialize_fields(prog, list, pkt);

  std::uint64_t h = 0;
  if (calc.algorithm == "crc32") {
    h = crc32(bytes);
  } else if (calc.algorithm == "crc16") {
    h = crc16(bytes);
  } else if (calc.algorithm == "identity") {
    for (const auto b : bytes) h = (h << 8) | b;
  } else if (calc.algorithm == "xor_fold") {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      acc ^= static_cast<std::uint64_t>(bytes[i]) << ((i % 8) * 8);
    }
    h = acc;
  } else {
    throw UserError("unknown hash algorithm: " + calc.algorithm);
  }
  return truncate_to_width(h, calc.output_width);
}

std::uint64_t ActionExecutor::eval(const p4::Operand& o,
                                   std::span<const std::uint64_t> args,
                                   const Packet& pkt) const {
  switch (o.kind) {
    case p4::OperandKind::kField: return pkt.get(o.field);
    case p4::OperandKind::kConst: return o.value;
    case p4::OperandKind::kParam:
      expects(o.param < args.size(), "ActionExecutor: missing runtime arg");
      return args[o.param];
    case p4::OperandKind::kMbl:
      throw InvariantError("ActionExecutor: unresolved malleable ${" + o.mbl + "}");
  }
  return 0;
}

void ActionExecutor::execute(const p4::ActionDecl& action,
                             std::span<const ObjectRef> objects,
                             std::span<const std::uint64_t> args, Packet& pkt) {
  if (args.size() != action.params.size()) [[unlikely]] {
    // Concat only on the throw path; this guard runs once per table apply.
    throw PreconditionError("ActionExecutor: arg count mismatch for " +
                            action.name);
  }
  for (std::size_t i = 0; i < action.body.size(); ++i) {
    const auto& ins = action.body[i];
    const ObjectRef object = objects[i];
    auto dst_field = [&]() -> p4::FieldId { return ins.args[0].field; };
    auto dst_width = [&]() -> p4::Width {
      return prog_->fields.width(ins.args[0].field);
    };
    switch (ins.op) {
      case p4::PrimOp::kModifyField:
        pkt.set(dst_field(), eval(ins.args[1], args, pkt), dst_width());
        break;
      case p4::PrimOp::kAdd:
        pkt.set(dst_field(),
                eval(ins.args[1], args, pkt) + eval(ins.args[2], args, pkt),
                dst_width());
        break;
      case p4::PrimOp::kSubtract:
        pkt.set(dst_field(),
                eval(ins.args[1], args, pkt) - eval(ins.args[2], args, pkt),
                dst_width());
        break;
      case p4::PrimOp::kAddToField:
        pkt.set(dst_field(), pkt.get(dst_field()) + eval(ins.args[1], args, pkt),
                dst_width());
        break;
      case p4::PrimOp::kSubtractFromField:
        pkt.set(dst_field(), pkt.get(dst_field()) - eval(ins.args[1], args, pkt),
                dst_width());
        break;
      case p4::PrimOp::kBitAnd:
        pkt.set(dst_field(),
                eval(ins.args[1], args, pkt) & eval(ins.args[2], args, pkt),
                dst_width());
        break;
      case p4::PrimOp::kBitOr:
        pkt.set(dst_field(),
                eval(ins.args[1], args, pkt) | eval(ins.args[2], args, pkt),
                dst_width());
        break;
      case p4::PrimOp::kBitXor:
        pkt.set(dst_field(),
                eval(ins.args[1], args, pkt) ^ eval(ins.args[2], args, pkt),
                dst_width());
        break;
      case p4::PrimOp::kShiftLeft: {
        const auto shift = eval(ins.args[2], args, pkt) & 63;
        pkt.set(dst_field(), eval(ins.args[1], args, pkt) << shift, dst_width());
        break;
      }
      case p4::PrimOp::kShiftRight: {
        const auto shift = eval(ins.args[2], args, pkt) & 63;
        pkt.set(dst_field(), eval(ins.args[1], args, pkt) >> shift, dst_width());
        break;
      }
      case p4::PrimOp::kRegisterRead: {
        const auto index =
            static_cast<std::uint32_t>(eval(ins.args[1], args, pkt));
        pkt.set(dst_field(), regs_->read(object.id, index), dst_width());
        break;
      }
      case p4::PrimOp::kRegisterWrite: {
        const auto index =
            static_cast<std::uint32_t>(eval(ins.args[0], args, pkt));
        regs_->write(object.id, index, eval(ins.args[1], args, pkt));
        break;
      }
      case p4::PrimOp::kCount: {
        const auto index =
            static_cast<std::uint32_t>(eval(ins.args[0], args, pkt));
        regs_->count(object.id, index);
        break;
      }
      case p4::PrimOp::kModifyFieldWithHash: {
        const std::uint64_t base = eval(ins.args[1], args, pkt);
        const std::uint64_t size = eval(ins.args[2], args, pkt);
        expects(size > 0, "modify_field_with_hash_based_offset: size == 0");
        const std::uint64_t h =
            compute_hash(*prog_, prog_->hash_calcs[object.id],
                         prog_->field_lists[object.field_list], pkt);
        pkt.set(dst_field(), base + (h % size), dst_width());
        break;
      }
      case p4::PrimOp::kDrop:
        pkt.mark_dropped();
        break;
      case p4::PrimOp::kNoOp:
        break;
    }
  }
}

bool eval_condition(const p4::Program& /*prog*/, const p4::CondExpr& cond,
                    const Packet& pkt) {
  auto value_of = [&](const p4::Operand& o) -> std::uint64_t {
    switch (o.kind) {
      case p4::OperandKind::kField: return pkt.get(o.field);
      case p4::OperandKind::kConst: return o.value;
      case p4::OperandKind::kParam:
      case p4::OperandKind::kMbl:
        throw PreconditionError("eval_condition: params/malleables not allowed here");
    }
    return 0;
  };
  const std::uint64_t a = value_of(cond.lhs);
  const std::uint64_t b = value_of(cond.rhs);
  switch (cond.op) {
    case p4::RelOp::kEq: return a == b;
    case p4::RelOp::kNe: return a != b;
    case p4::RelOp::kLt: return a < b;
    case p4::RelOp::kLe: return a <= b;
    case p4::RelOp::kGt: return a > b;
    case p4::RelOp::kGe: return a >= b;
  }
  return false;
}

}  // namespace mantis::sim
