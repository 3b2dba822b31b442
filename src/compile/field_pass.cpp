// Malleable field transformation (paper Figs 5 and 6, plus the "load values
// in prior stages" optimization from the end of §4.1).
//
// Three strategies, chosen per usage site:
//  * field_list usage -> LOAD strategy: a generated table right after init
//    copies the currently selected alternative into a metadata value field;
//    the field_list (and any action/match use of the same malleable)
//    references that field. Writing a loaded malleable is rejected.
//  * action usage (read or write) -> ACTION SPECIALIZATION: the action is
//    cloned per combination of alternatives of the malleable fields it uses;
//    affected tables gain a ternary selector column per such field.
//  * match-key usage -> MATCH EXPANSION: the malleable key column becomes
//    |alts| ternary columns (one per alternative) plus the selector column;
//    the agent expands each user entry into |alts| concrete entries.
#include <algorithm>
#include <set>

#include "compile/context.hpp"
#include "util/bits.hpp"
#include "util/check.hpp"

namespace mantis::compile::detail {

namespace {

bool is_writing_prim(p4::PrimOp op) {
  switch (op) {
    case p4::PrimOp::kModifyField:
    case p4::PrimOp::kAdd:
    case p4::PrimOp::kSubtract:
    case p4::PrimOp::kAddToField:
    case p4::PrimOp::kSubtractFromField:
    case p4::PrimOp::kBitAnd:
    case p4::PrimOp::kBitOr:
    case p4::PrimOp::kBitXor:
    case p4::PrimOp::kShiftLeft:
    case p4::PrimOp::kShiftRight:
    case p4::PrimOp::kRegisterRead:
    case p4::PrimOp::kModifyFieldWithHash:
      return true;
    default:
      return false;
  }
}

bool action_uses_mbl(const p4::ActionDecl& act, const std::string& name) {
  for (const auto& ins : act.body) {
    for (const auto& arg : ins.args) {
      if (arg.kind == p4::OperandKind::kMbl && arg.mbl == name) return true;
    }
  }
  return false;
}

bool is_generated(const std::string& name) { return name.starts_with("p4r_"); }

}  // namespace

void run_field_pass(Context& ctx) {
  auto& prog = ctx.prog;
  const auto& mbl_fields = ctx.src->fields;

  // ---- selector fields + init scalars -------------------------------------
  for (const auto& mf : mbl_fields) {
    const unsigned sel_width = ceil_log2(mf.alts.size());
    const p4::FieldId sel = prog.append_metadata_field(
        kMetaInstance, mf.name + "_alt_", static_cast<p4::Width>(sel_width),
        mf.init_alt);
    ctx.selector_fields.emplace(mf.name, sel);
    ctx.scalar_items.push_back(Context::ScalarItem{
        mf.name, static_cast<p4::Width>(sel_width), mf.init_alt,
        /*is_selector=*/true, mf.alts.size()});
  }

  // ---- LOAD strategy for field_list usages ---------------------------------
  std::set<std::string> loaded;
  for (const auto& fl : prog.field_lists) {
    for (const auto& entry : fl.fields) {
      if (entry.is_malleable()) loaded.insert(entry.mbl);
    }
  }
  for (const auto& name : loaded) {
    const auto* mf = ctx.src->find_field(name);
    if (mf == nullptr) {
      throw UserError("field_list references '${" + name +
                      "}' which is not a malleable field");
    }
    // Writing a loaded malleable would race the pipeline-start load.
    for (const auto& act : prog.actions) {
      for (const auto& ins : act.body) {
        if (is_writing_prim(ins.op) && !ins.args.empty() &&
            ins.args[0].kind == p4::OperandKind::kMbl && ins.args[0].mbl == name) {
          throw UserError("malleable field '${" + name +
                          "}' is used in a field_list and therefore cannot be "
                          "a write destination (action " + act.name + ")");
        }
      }
    }

    const p4::FieldId val = prog.append_metadata_field(
        kMetaInstance, name + "_val_", mf->width);
    ctx.loaded_value_fields.emplace(name, val);

    std::vector<std::string> load_actions;
    for (std::size_t i = 0; i < mf->alts.size(); ++i) {
      p4::ActionDecl act;
      act.name = "p4r_load_" + name + "_" + std::to_string(i) + "_";
      p4::Instruction ins;
      ins.op = p4::PrimOp::kModifyField;
      ins.args = {p4::Operand::of_field(val), p4::Operand::of_field(mf->alts[i])};
      act.body.push_back(std::move(ins));
      load_actions.push_back(act.name);
      prog.actions.push_back(std::move(act));
    }

    p4::TableDecl tbl;
    tbl.name = "p4r_load_" + name + "_";
    tbl.reads.push_back(
        p4::MatchSpec{ctx.selector_fields.at(name), p4::MatchKind::kExact, ""});
    tbl.actions = load_actions;
    tbl.size = mf->alts.size();
    tbl.default_action = load_actions[mf->init_alt];
    ctx.load_tables.push_back(tbl.name);
    prog.tables.push_back(std::move(tbl));

    for (std::size_t i = 0; i < mf->alts.size(); ++i) {
      p4::EntrySpec spec;
      spec.key.push_back(p4::MatchValue{i, ~std::uint64_t{0}});
      spec.action = load_actions[i];
      ctx.bind.static_entries.emplace_back("p4r_load_" + name + "_", spec);
    }

    // Any read of the loaded malleable (field_list, action, or match key)
    // now goes through the loaded value field.
    for (auto& fl : prog.field_lists) {
      for (auto& entry : fl.fields) {
        if (entry.is_malleable() && entry.mbl == name) {
          entry.field = val;
          entry.mbl.clear();
        }
      }
    }
    for (auto& act : prog.actions) {
      for (auto& ins : act.body) {
        for (auto& arg : ins.args) {
          if (arg.kind == p4::OperandKind::kMbl && arg.mbl == name) {
            arg = p4::Operand::of_field(val);
          }
        }
      }
    }
    for (auto& tbl2 : prog.tables) {
      for (auto& read : tbl2.reads) {
        if (read.is_malleable() && read.mbl == name) {
          read.field = val;
          read.mbl.clear();
        }
      }
    }
  }

  // ---- ACTION SPECIALIZATION ------------------------------------------------
  // For every action that still references malleable fields, emit one copy
  // per combination of alternatives (mixed radix, last dim fastest).
  std::map<std::string, ActionInfo> spec_map;
  std::vector<p4::ActionDecl> new_actions;
  for (const auto& act : prog.actions) {
    std::vector<const p4r::MalleableField*> dims;
    for (const auto& mf : mbl_fields) {
      if (loaded.count(mf.name) != 0) continue;
      if (action_uses_mbl(act, mf.name)) dims.push_back(&mf);
    }
    ActionInfo info;
    info.original = act.name;
    if (dims.empty()) {
      info.specialized = {act.name};
      spec_map.emplace(act.name, std::move(info));
      new_actions.push_back(act);
      continue;
    }
    std::size_t combos = 1;
    for (const auto* mf : dims) {
      info.dims.push_back(mf->name);
      info.dim_alts.push_back(mf->alts.size());
      combos *= mf->alts.size();
    }
    for (std::size_t c = 0; c < combos; ++c) {
      // Decode mixed-radix digits, last dim fastest.
      std::vector<std::size_t> choice(dims.size());
      std::size_t rem = c;
      for (std::size_t k = dims.size(); k-- > 0;) {
        choice[k] = rem % dims[k]->alts.size();
        rem /= dims[k]->alts.size();
      }
      p4::ActionDecl copy = act;
      copy.name = act.name + "__";
      for (std::size_t k = 0; k < dims.size(); ++k) {
        if (k > 0) copy.name += '_';
        copy.name += std::to_string(choice[k]);
      }
      copy.name += "_";
      for (auto& ins : copy.body) {
        for (auto& arg : ins.args) {
          if (arg.kind != p4::OperandKind::kMbl) continue;
          for (std::size_t k = 0; k < dims.size(); ++k) {
            if (arg.mbl == dims[k]->name) {
              arg = p4::Operand::of_field(dims[k]->alts[choice[k]]);
              break;
            }
          }
        }
      }
      info.specialized.push_back(copy.name);
      new_actions.push_back(std::move(copy));
    }
    spec_map.emplace(act.name, std::move(info));
  }
  prog.actions = std::move(new_actions);

  // ---- per-table rewrite: match expansion + selector columns ---------------
  for (auto& tbl : prog.tables) {
    if (is_generated(tbl.name)) continue;

    TableInfo info;
    info.name = tbl.name;
    info.malleable = ctx.src->is_malleable_table(tbl.name);
    info.original_read_count = tbl.reads.size();

    std::vector<p4::MatchSpec> new_reads;
    struct Pending {
      const p4r::MalleableField* mf;
      std::size_t original_index;
      p4::MatchKind kind;
      std::uint64_t premask;
    };
    std::vector<Pending> pending;
    for (std::size_t i = 0; i < tbl.reads.size(); ++i) {
      const auto& read = tbl.reads[i];
      if (!read.is_malleable()) {
        info.col_of_original.push_back(static_cast<int>(new_reads.size()));
        new_reads.push_back(read);
        continue;
      }
      const auto* mf = ctx.src->find_field(read.mbl);
      ensures(mf != nullptr, "field_pass: unknown malleable in reads");
      info.col_of_original.push_back(-1);
      pending.push_back(Pending{mf, i, read.kind, read.premask});
    }
    for (const auto& p : pending) {
      MblReadInfo mri;
      mri.mbl = p.mf->name;
      mri.original_index = p.original_index;
      mri.original_kind = p.kind;
      mri.premask = p.premask;
      const p4::MatchKind alt_kind =
          p.kind == p4::MatchKind::kExact ? p4::MatchKind::kTernary : p.kind;
      for (const auto alt : p.mf->alts) {
        mri.alt_cols.push_back(new_reads.size());
        new_reads.push_back(p4::MatchSpec{alt, alt_kind, ""});
      }
      info.mbl_reads.push_back(std::move(mri));
    }

    // Which malleable fields need a selector column here?
    std::vector<std::string> selector_order;
    for (const auto& mri : info.mbl_reads) selector_order.push_back(mri.mbl);
    for (const auto& act_name : tbl.actions) {
      auto it = spec_map.find(act_name);
      if (it == spec_map.end()) continue;
      for (const auto& dim : it->second.dims) {
        if (std::find(selector_order.begin(), selector_order.end(), dim) ==
            selector_order.end()) {
          selector_order.push_back(dim);
        }
      }
    }
    for (const auto& fname : selector_order) {
      const std::size_t col = new_reads.size();
      new_reads.push_back(p4::MatchSpec{ctx.selector_fields.at(fname),
                                        p4::MatchKind::kTernary, ""});
      info.selector_cols.emplace(fname, col);
    }
    for (auto& mri : info.mbl_reads) {
      mri.selector_col = info.selector_cols.at(mri.mbl);
    }

    // Rewrite the action list with specializations.
    std::vector<std::string> new_action_list;
    for (const auto& act_name : tbl.actions) {
      auto it = spec_map.find(act_name);
      ensures(it != spec_map.end(), "field_pass: table action missing: " + act_name);
      info.actions.push_back(it->second);
      for (const auto& s : it->second.specialized) new_action_list.push_back(s);
    }
    if (!tbl.default_action.empty()) {
      auto it = spec_map.find(tbl.default_action);
      if (it != spec_map.end() && !it->second.dims.empty()) {
        throw UserError("table " + tbl.name + ": default action '" +
                        tbl.default_action +
                        "' uses malleable fields; default actions cannot be "
                        "specialized");
      }
    }
    tbl.actions = std::move(new_action_list);

    // Worst-case expansion product: all fields with a selector column here.
    info.expansion_product = 1;
    for (const auto& fname : selector_order) {
      info.expansion_product *= ctx.src->find_field(fname)->alts.size();
    }
    tbl.size *= info.expansion_product;

    tbl.reads = std::move(new_reads);
    info.total_cols = tbl.reads.size();
    ctx.bind.tables.emplace(tbl.name, std::move(info));
  }
}

}  // namespace mantis::compile::detail
