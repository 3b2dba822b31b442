#include "agent/update_protocol.hpp"

#include "util/check.hpp"

namespace mantis::agent {

TableRuntime& UpdateProtocol::runtime(const std::string& table) {
  auto it = tables_->find(table);
  if (it == tables_->end()) throw UserError("unknown user table: " + table);
  return it->second;
}

namespace {

/// Same specialization dims => same expanded keys => in-place modify is safe.
bool same_dims(const compile::TableInfo& info, const std::string& a,
               const std::string& b) {
  const auto* ai = info.find_action(a);
  const auto* bi = info.find_action(b);
  ensures(ai != nullptr && bi != nullptr, "same_dims: unknown action");
  return ai->dims == bi->dims;
}

/// The copies an immediate op writes: both vv copies of a malleable table,
/// the single copy of a plain one.
std::vector<std::optional<int>> copies_of(const TableRuntime& rt) {
  if (rt.info->malleable) return {0, 1};
  return {std::nullopt};
}

}  // namespace

UpdateProtocol::StagedCopy UpdateProtocol::stage_copy(
    const std::vector<PendingOp>& ops, std::optional<int> vv,
    driver::BatchBuilder& out) {
  ensures(!vv || *vv == 0 || *vv == 1, "stage_copy: bad vv");
  StagedCopy staged;
  staged.copy = static_cast<std::size_t>(vv.value_or(0));
  staged.first = out.size();
  for (const auto& op : ops) {
    auto& rt = runtime(op.table);
    ensures(rt.info->malleable == vv.has_value(),
            "stage_copy: vv copy mismatch on table " + op.table);
    auto& handles = rt.entries.at(op.id).handles[staged.copy];

    switch (op.kind) {
      case PendingOp::Kind::kAdd: {
        const auto specs = expand_user_entry(*rt.info, rt.alts, op.user_spec, vv);
        for (const auto& spec : specs) out.add_entry(op.table, spec);
        staged.adds.push_back(StagedCopy::AddSlot{op.table, op.id, specs.size()});
        break;
      }
      case PendingOp::Kind::kMod: {
        const auto specs = expand_user_entry(*rt.info, rt.alts, op.user_spec, vv);
        if (same_dims(*rt.info, op.old_action, op.user_spec.action)) {
          ensures(specs.size() == handles.size(),
                  "stage_copy: expansion count changed unexpectedly");
          for (std::size_t i = 0; i < specs.size(); ++i) {
            out.modify_entry(op.table, handles[i], specs[i].action,
                             specs[i].action_args);
          }
        } else {
          // Different specialization shape: replace the concrete entries.
          for (const auto h : handles) out.delete_entry(op.table, h);
          handles.clear();
          for (const auto& spec : specs) out.add_entry(op.table, spec);
          staged.adds.push_back(
              StagedCopy::AddSlot{op.table, op.id, specs.size()});
        }
        break;
      }
      case PendingOp::Kind::kDel: {
        for (const auto h : handles) out.delete_entry(op.table, h);
        handles.clear();
        break;
      }
    }
  }
  staged.end = out.size();
  return staged;
}

void UpdateProtocol::absorb_copy(const StagedCopy& staged,
                                 const std::vector<driver::OpResult>& results) {
  ensures(staged.end <= results.size(), "absorb_copy: missing op results");
  std::vector<sim::EntryHandle> new_handles;
  for (std::size_t i = staged.first; i < staged.end; ++i) {
    if (results[i].kind == driver::Op::Kind::kAdd) {
      new_handles.push_back(results[i].handle);
    }
  }
  std::size_t cursor = 0;
  for (const auto& slot : staged.adds) {
    auto eit = runtime(slot.table).entries.find(slot.id);
    ensures(eit != runtime(slot.table).entries.end(),
            "absorb_copy: user entry vanished before its handles arrived");
    auto& handles = eit->second.handles[staged.copy];
    for (std::size_t i = 0; i < slot.count; ++i) {
      ensures(cursor < new_handles.size(), "absorb_copy: handle underflow");
      handles.push_back(new_handles[cursor++]);
    }
  }
  ensures(cursor == new_handles.size(), "absorb_copy: handle overflow");
}

void UpdateProtocol::erase_deleted(const std::vector<PendingOp>& ops) {
  for (const auto& op : ops) {
    if (op.kind == PendingOp::Kind::kDel) {
      runtime(op.table).entries.erase(op.id);
    }
  }
}

void UpdateProtocol::run_copies(const std::vector<PendingOp>& ops,
                                const std::vector<std::optional<int>>& vvs) {
  driver::BatchBuilder batch;
  std::vector<StagedCopy> staged;
  for (const auto vv : vvs) staged.push_back(stage_copy(ops, vv, batch));
  const auto results = drv_->run_batch(std::move(batch));
  for (const auto& copy : staged) absorb_copy(copy, results);
}

UserEntryId UpdateProtocol::immediate_add(const std::string& table,
                                          const p4::EntrySpec& user) {
  auto& rt = runtime(table);
  const UserEntryId id = rt.next_id++;
  TableRuntime::UserEntry entry;
  entry.user_spec = user;
  rt.entries.emplace(id, std::move(entry));

  PendingOp op;
  op.kind = PendingOp::Kind::kAdd;
  op.table = table;
  op.id = id;
  op.user_spec = user;
  run_copies({op}, copies_of(rt));  // one batch: every copy's installs
  return id;
}

void UpdateProtocol::immediate_mod(const std::string& table, UserEntryId id,
                                   const std::string& action,
                                   std::vector<std::uint64_t> args) {
  auto& rt = runtime(table);
  auto it = rt.entries.find(id);
  if (it == rt.entries.end()) throw UserError("immediate_mod: bad entry id");
  PendingOp op;
  op.kind = PendingOp::Kind::kMod;
  op.table = table;
  op.id = id;
  op.old_action = it->second.user_spec.action;
  it->second.user_spec.action = action;
  it->second.user_spec.action_args = std::move(args);
  op.user_spec = it->second.user_spec;
  for (const auto vv : copies_of(rt)) run_copies({op}, {vv});  // batch per copy
}

void UpdateProtocol::immediate_del(const std::string& table, UserEntryId id) {
  auto& rt = runtime(table);
  if (rt.entries.count(id) == 0) throw UserError("immediate_del: bad entry id");
  PendingOp op;
  op.kind = PendingOp::Kind::kDel;
  op.table = table;
  op.id = id;
  run_copies({op}, copies_of(rt));  // one batch: every copy's deletes
  erase_deleted({op});
}

}  // namespace mantis::agent
