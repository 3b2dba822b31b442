// The compiled program a simulated switch runs, built once per program.
//
// Like the binary a Tofino loads, the image is immutable: the program,
// prepared (standard metadata, a `_no_op_` action for table misses) and
// validated once, plus its data plane with every name resolved to a dense
// id — apply nodes carry table ids and action operands carry register,
// counter and hash-calc ids. All switches of a fabric share one image
// through a shared_ptr<const SwitchImage>; each switch keeps only its
// mutable state (tables, registers, queues, stats). Nothing in the image is
// filled in on demand, so shards on different threads read it freely.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "p4/ir.hpp"

namespace mantis::sim {

/// Dense ids: positions in the program's declaration vectors.
using TableId = std::uint32_t;     ///< into Program::tables
using ActionId = std::uint32_t;    ///< into Program::actions
using RegisterId = std::uint32_t;  ///< into Program::registers
using CounterId = std::uint32_t;   ///< into Program::counters
using HashCalcId = std::uint32_t;  ///< into Program::hash_calcs

/// The object one instruction names, resolved: a register, counter or hash
/// calc id by the primitive (0 for primitives without one), and for a hash
/// calc also the position of its field list in Program::field_lists.
struct ObjectRef {
  std::uint32_t id = 0;
  std::uint32_t field_list = 0;
};

/// Resolves the object of every instruction of `action` against `prog`.
/// Throws UserError for an unknown register or counter and InvariantError
/// for an unknown hash calc or field list (Program::validate rules out all
/// of these).
std::vector<ObjectRef> resolve_objects(const p4::Program& prog,
                                       const p4::ActionDecl& action);

/// One node of a compiled control block. A block is a flat pre-order list:
/// an if-node at i runs [i + 1, else_at) when its condition holds and
/// [else_at, end_at) otherwise, and the block continues at end_at.
struct ControlStep {
  const p4::CondExpr* cond = nullptr;  ///< null: an apply of `table`
  TableId table = 0;
  std::uint32_t else_at = 0;
  std::uint32_t end_at = 0;
};

class SwitchImage {
 public:
  /// Adds the standard metadata and `_no_op_` to `prog`, validates it
  /// (InvariantError on failure) and resolves its data plane.
  explicit SwitchImage(p4::Program prog);

  SwitchImage(const SwitchImage&) = delete;
  SwitchImage& operator=(const SwitchImage&) = delete;

  const p4::Program& program() const { return prog_; }

  /// The ingress or egress control block, compiled.
  const std::vector<ControlStep>& control(p4::Gress g) const {
    return g == p4::Gress::kIngress ? ingress_ : egress_;
  }

  /// The resolved objects of action `a`'s instructions, in body order.
  std::span<const ObjectRef> objects(ActionId a) const { return objects_[a]; }

  /// Id of the table named `name` (the first, like Program::find_table).
  /// Throws UserError("unknown table: ...") when there is none.
  TableId table_id(std::string_view name) const;

 private:
  p4::Program prog_;
  /// Keys view the names inside prog_, which never changes after build.
  std::unordered_map<std::string_view, TableId> table_ids_;
  std::vector<ControlStep> ingress_;
  std::vector<ControlStep> egress_;
  std::vector<std::vector<ObjectRef>> objects_;

  void compile(const std::vector<p4::ControlNode>& nodes,
               std::vector<ControlStep>& out) const;
};

}  // namespace mantis::sim
