// The serializable update protocol (paper §5.1.2, Figs 7-8).
//
// Reaction-time table operations are buffered; after the reaction body runs,
// the agent executes:
//   PREPARE — install/modify/delete the *shadow* copies (vv = vv^1) of every
//             touched entry, batched; packets keep using the primary copies.
//   COMMIT  — one master-init-table update flips vv (done by the agent, which
//             also carries scalar malleable changes in the same update).
//   MIRROR  — replay the same operations on the now-shadow old-primary
//             copies, so a subsequent flip is instantly safe and the shadow
//             maintenance cost is amortized into every iteration.
// Outside the dialogue (prologue / management), IMMEDIATE mode installs both
// copies at once.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "agent/handles.hpp"
#include "driver/batch.hpp"
#include "driver/driver.hpp"

namespace mantis::agent {

struct PendingOp {
  enum class Kind : std::uint8_t { kAdd, kMod, kDel };
  Kind kind = Kind::kAdd;
  std::string table;
  UserEntryId id = 0;
  p4::EntrySpec user_spec;   ///< kAdd/kMod: the (new) user-level spec
  std::string old_action;    ///< kMod: the action before the modification
};

class UpdateProtocol {
 public:
  UpdateProtocol(driver::Driver& drv, std::map<std::string, TableRuntime>& tables)
      : drv_(&drv), tables_(&tables) {}

  // ---- staging (shared by the sync driver and the async runtime) ----
  //
  // stage_copy() emits one copy's ops into a BatchBuilder. `vv` names a
  // malleable table's vv copy; nullopt names a plain table's single copy
  // (immediate mode only). Agent-side bookkeeping that later staging
  // depends on (handle-list clears for deletes and shape-changing mods)
  // happens at stage time; the handles new installs produce exist only once
  // the batch has run, so stage_copy returns absorb slots and absorb_copy()
  // fills them from the batch's results — before anything stages against
  // that copy again.

  struct StagedCopy {
    std::size_t copy = 0;   ///< handles index: the vv value, 0 for a plain table
    std::size_t first = 0;  ///< the copy's ops are [first, end) of the batch
    std::size_t end = 0;
    struct AddSlot {
      std::string table;
      UserEntryId id = 0;
      std::size_t count = 0;  ///< expanded concrete entries for this add
    };
    std::vector<AddSlot> adds;  ///< in batch add-op order
  };
  StagedCopy stage_copy(const std::vector<PendingOp>& ops,
                        std::optional<int> vv, driver::BatchBuilder& out);
  /// Records the handles of `staged`'s adds from the batch's per-op results
  /// (the batch may also carry other copies or unrelated ops, e.g. init-entry
  /// modifies, outside `staged`'s range).
  void absorb_copy(const StagedCopy& staged,
                   const std::vector<driver::OpResult>& results);
  /// The bookkeeping tail of MIRROR: drops user entries whose delete has
  /// now reached (or been staged against) both copies.
  void erase_deleted(const std::vector<PendingOp>& ops);

  /// Stages `ops` on each copy in `vvs`, runs them as one synchronous batch
  /// and absorbs the new handles. PREPARE is run_copies(ops, {vv_next});
  /// MIRROR is run_copies(ops, {vv_old}) followed by erase_deleted(ops).
  void run_copies(const std::vector<PendingOp>& ops,
                  const std::vector<std::optional<int>>& vvs);

  /// IMMEDIATE mode: installs both vv copies (malleable) or the single copy
  /// (plain table) right away. Returns the new user entry id.
  UserEntryId immediate_add(const std::string& table, const p4::EntrySpec& user);
  void immediate_mod(const std::string& table, UserEntryId id,
                     const std::string& action, std::vector<std::uint64_t> args);
  void immediate_del(const std::string& table, UserEntryId id);

 private:
  driver::Driver* drv_;
  std::map<std::string, TableRuntime>* tables_;

  TableRuntime& runtime(const std::string& table);
};

}  // namespace mantis::agent
