// Isolation transformations (paper §5):
//  * every user-declared malleable table gains an exact-match vv column and
//    doubled capacity (primary + shadow copies, Figs 7-8);
//  * every user register polled by a reaction gains an interleaved duplicate
//    register (2x instances, index = 2*i + mv) and a parallel timestamp
//    register incremented on each write (§5.2), with the write-only
//    elimination optimization when the data plane never reads the original.
#include <set>

#include "compile/context.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace mantis::compile::detail {

namespace {

bool data_plane_reads(const p4::Program& prog, const std::string& reg) {
  for (const auto& act : prog.actions) {
    for (const auto& ins : act.body) {
      if (ins.op == p4::PrimOp::kRegisterRead && ins.object == reg) return true;
    }
  }
  return false;
}

}  // namespace

void run_isolation_pass(Context& ctx) {
  auto& prog = ctx.prog;

  // ---- vv column on malleable tables ---------------------------------------
  for (auto& [name, info] : ctx.bind.tables) {
    if (!info.malleable) continue;
    auto* tbl = prog.find_table(name);
    ensures(tbl != nullptr, "isolation_pass: missing table " + name);
    info.vv_col = static_cast<int>(tbl->reads.size());
    tbl->reads.push_back(
        p4::MatchSpec{ctx.bind.vv_field, p4::MatchKind::kExact, ""});
    info.total_cols = tbl->reads.size();
    tbl->size *= 2;  // primary + shadow copy of every entry
  }

  // ---- duplicate + timestamp registers for reaction register params --------
  std::set<std::string> done;
  for (const auto& rx : ctx.src->reactions) {
    for (const auto& param : rx.params) {
      if (param.kind != p4r::ReactionParam::Kind::kRegister) continue;
      if (!done.insert(param.reg).second) continue;

      const auto* reg = prog.find_register(param.reg);
      ensures(reg != nullptr, "isolation_pass: missing register " + param.reg);
      // Copy out before the push_backs below: they may reallocate
      // prog.registers and invalidate `reg`.
      const p4::Width reg_width = reg->width;
      const std::uint32_t reg_count = reg->instance_count;
      const std::string dup_name = param.reg + "__dup_";
      const std::string ts_name = param.reg + "__ts_";
      const std::string seq_name = param.reg + "__seq_";
      const std::uint32_t dup_count = reg_count * 2;
      prog.registers.push_back(p4::RegisterDecl{dup_name, reg_width, dup_count});
      // ts holds, per copy, the value of the per-index write counter (seq)
      // at write time. A global-per-index stamp (not a per-copy count) is
      // what lets the control plane order the two copies' contents.
      prog.registers.push_back(p4::RegisterDecl{ts_name, 32, dup_count});
      prog.registers.push_back(p4::RegisterDecl{seq_name, 32, reg_count});

      const p4::FieldId dupidx = prog.append_metadata_field(
          kMetaInstance, param.reg + "_dupidx_", 32);
      const p4::FieldId tsv = prog.append_metadata_field(
          kMetaInstance, param.reg + "_tsv_", 32);

      const bool keep_original = data_plane_reads(prog, param.reg);

      for (auto& act : prog.actions) {
        std::vector<p4::Instruction> body;
        body.reserve(act.body.size());
        for (auto& ins : act.body) {
          if (ins.op != p4::PrimOp::kRegisterWrite || ins.object != param.reg) {
            body.push_back(std::move(ins));
            continue;
          }
          const p4::Operand idx_op = ins.args[0];
          const p4::Operand val_op = ins.args[1];
          if (keep_original) body.push_back(std::move(ins));

          // seq[idx] += 1 (read-modify-write in the stateful ALU)
          p4::Instruction rseq;
          rseq.op = p4::PrimOp::kRegisterRead;
          rseq.object = seq_name;
          rseq.args = {p4::Operand::of_field(tsv), idx_op};
          body.push_back(std::move(rseq));
          p4::Instruction inc;
          inc.op = p4::PrimOp::kAddToField;
          inc.args = {p4::Operand::of_field(tsv), p4::Operand::of_const(1)};
          body.push_back(std::move(inc));
          p4::Instruction wseq;
          wseq.op = p4::PrimOp::kRegisterWrite;
          wseq.object = seq_name;
          wseq.args = {idx_op, p4::Operand::of_field(tsv)};
          body.push_back(std::move(wseq));
          // dupidx = idx * 2 + mv
          p4::Instruction shl;
          shl.op = p4::PrimOp::kShiftLeft;
          shl.args = {p4::Operand::of_field(dupidx), idx_op,
                      p4::Operand::of_const(1)};
          body.push_back(std::move(shl));
          p4::Instruction addmv;
          addmv.op = p4::PrimOp::kAddToField;
          addmv.args = {p4::Operand::of_field(dupidx),
                        p4::Operand::of_field(ctx.bind.mv_field)};
          body.push_back(std::move(addmv));
          // dup[dupidx] = value; ts[dupidx] = seq[idx]
          p4::Instruction wdup;
          wdup.op = p4::PrimOp::kRegisterWrite;
          wdup.object = dup_name;
          wdup.args = {p4::Operand::of_field(dupidx), val_op};
          body.push_back(std::move(wdup));
          p4::Instruction wts;
          wts.op = p4::PrimOp::kRegisterWrite;
          wts.object = ts_name;
          wts.args = {p4::Operand::of_field(dupidx), p4::Operand::of_field(tsv)};
          body.push_back(std::move(wts));
        }
        act.body = std::move(body);
      }

      if (!keep_original) {
        // Write-only optimization: the original register is dead; remove it.
        std::erase_if(prog.registers, [&](const p4::RegisterDecl& r) {
          return r.name == param.reg;
        });
      }
    }
  }
}

}  // namespace mantis::compile::detail
