// In-memory representation of a P4-14 (v1.0.5 subset) program.
//
// This IR is the hinge of the whole system: the P4R frontend lowers parsed
// source into it, the Mantis compiler's transformation passes rewrite it, the
// emitter prints it back as P4-14 text (the paper's artifact #1), and the RMT
// simulator loads it for execution. Names are plain strings at this level;
// sim::SwitchImage resolves them to dense ids once per loaded program.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/check.hpp"

namespace mantis::p4 {

/// Field or value width in bits. The subset we implement caps widths at 64,
/// which covers every field the paper's use cases touch (5-tuples, counters,
/// timestamps, queue depths).
using Width = std::uint16_t;

constexpr Width kMaxWidth = 64;

// ---------------------------------------------------------------------------
// Fields
// ---------------------------------------------------------------------------

/// Dense handle for a header/metadata field, issued by FieldCatalog.
using FieldId = std::uint32_t;

constexpr FieldId kInvalidField = ~FieldId{0};

/// The authoritative registry of every addressable field in a program.
/// Full names are "instance.field" (e.g. "ipv4.srcAddr", "p4r_meta_.vv_").
class FieldCatalog {
 public:
  /// Registers a field; returns its id. Throws if the full name exists.
  FieldId add(std::string_view instance, std::string_view field, Width width);

  /// Returns the id for "instance.field" spelled as one string, or
  /// kInvalidField when absent.
  FieldId find(std::string_view full_name) const;

  /// Like find() but throws UserError with a location-free message.
  FieldId require(std::string_view full_name) const;

  Width width(FieldId id) const;
  const std::string& full_name(FieldId id) const;
  const std::string& instance(FieldId id) const;
  const std::string& field(FieldId id) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string instance;
    std::string field;
    std::string full_name;
    Width width;
  };
  std::vector<Entry> entries_;
  const Entry& at(FieldId id) const;
};

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

struct FieldDecl {
  std::string name;
  Width width = 0;
};

struct HeaderTypeDecl {
  std::string name;
  std::vector<FieldDecl> fields;

  Width total_width() const;
};

/// A header or metadata instance of some header type.
struct HeaderInstance {
  std::string name;
  std::string type_name;
  bool is_metadata = false;
  /// Initial values for metadata fields (field name -> value); P4-14 allows
  /// initializers on metadata instances only.
  std::vector<std::pair<std::string, std::uint64_t>> initializers;
};

// ---------------------------------------------------------------------------
// Actions
// ---------------------------------------------------------------------------

/// kMbl marks a P4R `${name}` reference. It only exists between the frontend
/// and the Mantis compiler passes; Program::validate() (run before loading a
/// program into the simulator) rejects any that survive.
enum class OperandKind : std::uint8_t { kField, kConst, kParam, kMbl };

/// An argument to a primitive op: a field reference, a literal, a reference
/// to one of the enclosing action's runtime parameters, or (pre-compilation
/// only) a malleable reference.
struct Operand {
  OperandKind kind = OperandKind::kConst;
  FieldId field = kInvalidField;
  std::uint64_t value = 0;
  std::uint16_t param = 0;
  std::string mbl;  ///< kMbl: the malleable's name

  static Operand of_field(FieldId f) {
    Operand o;
    o.kind = OperandKind::kField;
    o.field = f;
    return o;
  }
  static Operand of_const(std::uint64_t v) {
    Operand o;
    o.kind = OperandKind::kConst;
    o.value = v;
    return o;
  }
  static Operand of_param(std::uint16_t p) {
    Operand o;
    o.kind = OperandKind::kParam;
    o.param = p;
    return o;
  }
  static Operand of_mbl(std::string name) {
    Operand o;
    o.kind = OperandKind::kMbl;
    o.mbl = std::move(name);
    return o;
  }

  bool operator==(const Operand&) const = default;
};

/// P4-14 primitive actions (the subset Mantis's transformations and the four
/// use cases need). Operand layout documented per enumerator.
enum class PrimOp : std::uint8_t {
  kModifyField,        // args: dst(field), src
  kAdd,                // args: dst(field), a, b
  kSubtract,           // args: dst(field), a, b
  kAddToField,         // args: dst(field), a
  kSubtractFromField,  // args: dst(field), a
  kBitAnd,             // args: dst(field), a, b
  kBitOr,              // args: dst(field), a, b
  kBitXor,             // args: dst(field), a, b
  kShiftLeft,          // args: dst(field), a, b
  kShiftRight,         // args: dst(field), a, b
  kRegisterRead,       // object: register; args: dst(field), index
  kRegisterWrite,      // object: register; args: index, src
  kCount,              // object: counter;  args: index
  kModifyFieldWithHash,  // object: hash calc; args: dst(field), base, size
  kDrop,               // no args
  kNoOp,               // no args
};

/// Returns the canonical P4-14 spelling of a primitive.
std::string_view prim_op_name(PrimOp op);

struct Instruction {
  PrimOp op = PrimOp::kNoOp;
  std::string object;  ///< register / counter / field_list_calculation name
  std::vector<Operand> args;
};

struct ActionParam {
  std::string name;
  Width width = 32;
};

struct ActionDecl {
  std::string name;
  std::vector<ActionParam> params;
  std::vector<Instruction> body;
};

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

enum class MatchKind : std::uint8_t { kExact, kTernary, kLpm, kValid };

std::string_view match_kind_name(MatchKind kind);

struct MatchSpec {
  FieldId field = kInvalidField;
  MatchKind kind = MatchKind::kExact;
  std::string mbl;  ///< pre-compilation only: `${name}` used as a match key
  /// `${name} mask N` qualifier: entries only consider these bits.
  std::uint64_t premask = ~std::uint64_t{0};

  bool is_malleable() const { return !mbl.empty(); }
};

struct TableDecl {
  std::string name;
  std::vector<MatchSpec> reads;  ///< empty => default-action-only table
  std::vector<std::string> actions;
  std::size_t size = 1024;
  /// Default action applied on miss; empty string means NoOp.
  std::string default_action;
  std::vector<std::uint64_t> default_action_args;

  bool is_ternary() const;  ///< true if any read is ternary
};

/// One component of a runtime match key. Exact matches use an all-ones mask;
/// LPM uses a prefix mask; ternary is arbitrary. `value` must be pre-masked.
struct MatchValue {
  std::uint64_t value = 0;
  std::uint64_t mask = ~std::uint64_t{0};

  bool operator==(const MatchValue&) const = default;
};

/// A runtime table entry as submitted through the driver.
struct EntrySpec {
  std::vector<MatchValue> key;  ///< parallel to TableDecl::reads
  std::int32_t priority = 0;    ///< ternary tie-break: larger wins
  std::string action;
  std::vector<std::uint64_t> action_args;
};

// ---------------------------------------------------------------------------
// Stateful and hash objects
// ---------------------------------------------------------------------------

struct RegisterDecl {
  std::string name;
  Width width = 32;
  std::uint32_t instance_count = 1;

  std::uint64_t total_bits() const {
    return static_cast<std::uint64_t>(width) * instance_count;
  }
};

struct CounterDecl {
  std::string name;
  std::uint32_t instance_count = 1;
};

/// A field_list element: a concrete field, or (pre-compilation) a malleable.
struct FieldListEntry {
  FieldId field = kInvalidField;
  std::string mbl;

  bool is_malleable() const { return !mbl.empty(); }
};

struct FieldListDecl {
  std::string name;
  std::vector<FieldListEntry> fields;
};

struct HashCalcDecl {
  std::string name;
  std::string field_list;
  std::string algorithm = "crc32";  ///< "crc32", "crc16", "identity", "xor_fold"
  Width output_width = 16;
};

// ---------------------------------------------------------------------------
// Control flow
// ---------------------------------------------------------------------------

enum class RelOp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view rel_op_name(RelOp op);

struct CondExpr {
  Operand lhs;
  RelOp op = RelOp::kEq;
  Operand rhs;
};

struct ControlNode;

struct ApplyNode {
  std::string table;
};

struct IfNode {
  CondExpr cond;
  std::vector<ControlNode> then_branch;
  std::vector<ControlNode> else_branch;
};

struct ControlNode {
  std::variant<ApplyNode, IfNode> node;
};

struct ControlBlock {
  std::vector<ControlNode> nodes;
};

// ---------------------------------------------------------------------------
// Program
// ---------------------------------------------------------------------------

/// Which pipeline an object or reaction argument lives in.
enum class Gress : std::uint8_t { kIngress, kEgress };

std::string_view gress_name(Gress g);

struct Program {
  std::string name = "prog";

  FieldCatalog fields;
  std::vector<HeaderTypeDecl> header_types;
  std::vector<HeaderInstance> instances;
  std::vector<ActionDecl> actions;
  std::vector<TableDecl> tables;
  std::vector<RegisterDecl> registers;
  std::vector<CounterDecl> counters;
  std::vector<FieldListDecl> field_lists;
  std::vector<HashCalcDecl> hash_calcs;
  ControlBlock ingress;
  ControlBlock egress;

  // -- lookup helpers (nullptr when absent) --
  const ActionDecl* find_action(std::string_view name) const;
  ActionDecl* find_action(std::string_view name);
  const TableDecl* find_table(std::string_view name) const;
  TableDecl* find_table(std::string_view name);
  const RegisterDecl* find_register(std::string_view name) const;
  const CounterDecl* find_counter(std::string_view name) const;
  const HeaderTypeDecl* find_header_type(std::string_view name) const;
  const HeaderInstance* find_instance(std::string_view name) const;
  const FieldListDecl* find_field_list(std::string_view name) const;
  const HashCalcDecl* find_hash_calc(std::string_view name) const;

  /// Declares a new header type + metadata instance in one step and registers
  /// its fields in the catalog. Used heavily by the compiler passes.
  /// Returns the instance name for convenience.
  std::string add_metadata_instance(
      std::string_view type_name, std::string_view instance_name,
      const std::vector<std::pair<std::string, Width>>& fields);

  /// Appends a field to an existing header type + instance (and the catalog).
  FieldId append_metadata_field(std::string_view instance_name,
                                std::string_view field_name, Width width,
                                std::uint64_t init_value = 0);

  /// Whole-program consistency check: every referenced action/table/register/
  /// field exists, operand counts match primitive signatures, control blocks
  /// reference declared tables. Throws InvariantError on failure.
  void validate() const;

  /// Returns tables applied (transitively) by a control block, in order of
  /// first application.
  std::vector<std::string> tables_in(const ControlBlock& block) const;

  /// True if the table is applied in the given control block.
  bool applied_in(std::string_view table, const ControlBlock& block) const;

  /// Which pipeline applies this table. Throws if applied in neither.
  Gress gress_of_table(std::string_view table) const;
};

/// Registers the standard intrinsic metadata instance every program gets:
/// ingress_port, egress_spec, egress_port, packet_length, enq_qdepth,
/// deq_qdepth, ingress_global_timestamp, egress_global_timestamp.
/// Idempotent per Program.
void add_standard_metadata(Program& prog);

/// Canonical intrinsic field names.
namespace intrinsics {
inline constexpr std::string_view kInstance = "standard_metadata";
inline constexpr std::string_view kIngressPort = "standard_metadata.ingress_port";
inline constexpr std::string_view kEgressSpec = "standard_metadata.egress_spec";
inline constexpr std::string_view kEgressPort = "standard_metadata.egress_port";
inline constexpr std::string_view kPacketLength = "standard_metadata.packet_length";
inline constexpr std::string_view kEnqQdepth = "standard_metadata.enq_qdepth";
inline constexpr std::string_view kDeqQdepth = "standard_metadata.deq_qdepth";
inline constexpr std::string_view kIngressTimestamp =
    "standard_metadata.ingress_global_timestamp";
inline constexpr std::string_view kEgressTimestamp =
    "standard_metadata.egress_global_timestamp";
}  // namespace intrinsics

}  // namespace mantis::p4
