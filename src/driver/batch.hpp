// The driver's one op list. An Op is a single control-plane operation —
// table add/modify/delete, set_default, register write or read — and a
// BatchBuilder collects ops for one transfer. The synchronous Driver runs a
// batch with Driver::run_batch and each per-op call as a one-op transfer; the
// async runtime (driver/async) submits a batch as one pipelined DMA. Both
// price an op with Driver::solo_cost and apply it with Driver::apply_op, in
// batch order, and report one OpResult per op.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "p4/ir.hpp"
#include "sim/table_state.hpp"

namespace mantis::driver {

/// One driver operation.
struct Op {
  enum class Kind : std::uint8_t {
    kAdd,         ///< table entry install -> handle in the result
    kMod,         ///< table entry modify
    kDel,         ///< table entry delete
    kSetDefault,  ///< table default-action update
    kRegWrite,    ///< register cell write
    kRegRead,     ///< register cell read -> value in the result
  };

  Kind kind = Kind::kAdd;
  std::string target;            ///< table or register name
  p4::EntrySpec spec;            ///< kAdd
  sim::EntryHandle handle = 0;   ///< kMod / kDel
  std::string action;            ///< kMod / kSetDefault
  std::vector<std::uint64_t> args;  ///< kMod / kSetDefault
  std::uint32_t index = 0;       ///< kRegWrite / kRegRead
  std::uint64_t value = 0;       ///< kRegWrite

  static Op add(std::string table, p4::EntrySpec spec) {
    Op op;
    op.kind = Kind::kAdd;
    op.target = std::move(table);
    op.spec = std::move(spec);
    return op;
  }
  static Op modify(std::string table, sim::EntryHandle h, std::string action,
                   std::vector<std::uint64_t> args) {
    Op op;
    op.kind = Kind::kMod;
    op.target = std::move(table);
    op.handle = h;
    op.action = std::move(action);
    op.args = std::move(args);
    return op;
  }
  static Op erase(std::string table, sim::EntryHandle h) {
    Op op;
    op.kind = Kind::kDel;
    op.target = std::move(table);
    op.handle = h;
    return op;
  }
  static Op set_default(std::string table, std::string action,
                        std::vector<std::uint64_t> args) {
    Op op;
    op.kind = Kind::kSetDefault;
    op.target = std::move(table);
    op.action = std::move(action);
    op.args = std::move(args);
    return op;
  }
  static Op reg_write(std::string reg, std::uint32_t index,
                      std::uint64_t value) {
    Op op;
    op.kind = Kind::kRegWrite;
    op.target = std::move(reg);
    op.index = index;
    op.value = value;
    return op;
  }
  static Op reg_read(std::string reg, std::uint32_t index) {
    Op op;
    op.kind = Kind::kRegRead;
    op.target = std::move(reg);
    op.index = index;
    return op;
  }
};

/// Outcome of one op, in batch order.
struct OpResult {
  Op::Kind kind = Op::Kind::kAdd;
  bool ok = true;
  std::string error;            ///< empty when ok
  sim::EntryHandle handle = 0;  ///< kAdd: the installed entry's handle
  std::uint64_t value = 0;      ///< kRegRead: the cell's value at completion
};

class BatchBuilder {
 public:
  void add_entry(std::string table, p4::EntrySpec spec) {
    ops_.push_back(Op::add(std::move(table), std::move(spec)));
  }
  void modify_entry(std::string table, sim::EntryHandle h, std::string action,
                    std::vector<std::uint64_t> args) {
    ops_.push_back(
        Op::modify(std::move(table), h, std::move(action), std::move(args)));
  }
  void delete_entry(std::string table, sim::EntryHandle h) {
    ops_.push_back(Op::erase(std::move(table), h));
  }
  void set_default(std::string table, std::string action,
                   std::vector<std::uint64_t> args) {
    ops_.push_back(
        Op::set_default(std::move(table), std::move(action), std::move(args)));
  }
  void write_register(std::string reg, std::uint32_t index,
                      std::uint64_t value) {
    ops_.push_back(Op::reg_write(std::move(reg), index, value));
  }
  void read_register(std::string reg, std::uint32_t index) {
    ops_.push_back(Op::reg_read(std::move(reg), index));
  }

  bool empty() const { return ops_.empty(); }
  std::size_t size() const { return ops_.size(); }
  /// Hands the ops to the driver that runs them.
  std::vector<Op> take() && { return std::move(ops_); }

 private:
  std::vector<Op> ops_;
};

}  // namespace mantis::driver
