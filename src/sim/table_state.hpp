// Runtime state of one match-action table: the entry store plus the match
// engines (exact hash index, ternary/LPM precedence scan).
//
// Single-entry operations are atomic with respect to packets by construction
// (each driver op is one event on the loop) — exactly the guarantee RMT
// hardware gives and the *only* one Mantis's update protocol assumes (§5.1.1).
//
// Storage follows the live entries, never the declared size or the number
// of handles ever issued:
//  * One contiguous record store in handle order. Handles only grow, so an
//    add appends and a delete closes the gap. A record holds the handle,
//    the provenance stamp, the action id and priority, the key
//    (value/mask pairs) and the action args inline.
//  * All-exact tables index records by key values in a flat
//    open-addressing table (linear probing, load at most 1/2), rebuilt
//    smaller once deletes leave it 1/8 full.
//  * Other tables keep record positions sorted by precedence — priority,
//    then total LPM prefix length, then insert (= handle) order — so the
//    first match wins and the scan stops there.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "p4/ir.hpp"
#include "sim/packet.hpp"
#include "sim/switch_image.hpp"

namespace mantis::telemetry {
class ProvenanceContext;
}

namespace mantis::sim {

/// Opaque handle for a installed entry; stable until delete.
using EntryHandle = std::uint64_t;

class TableState {
 public:
  /// `prog` and `decl` must outlive the table; every action `decl` names
  /// (and `_no_op_` when it has no default action) must exist in `prog`.
  TableState(const p4::Program& prog, const p4::TableDecl& decl);

  const p4::TableDecl& decl() const { return *decl_; }
  const std::string& name() const { return decl_->name; }

  /// Mutations stamp entries with the live reaction id (0 = none); the
  /// switch wires this to its loop's provenance context.
  void set_provenance(telemetry::ProvenanceContext* prov) { prov_ = prov; }

  /// Installs an entry. Throws UserError when check_spec rejects it, the
  /// table is full, or an all-exact table already holds its key.
  EntryHandle add_entry(const p4::EntrySpec& spec);

  /// Replaces the action/args of an existing entry (match key is immutable,
  /// as on RMT hardware).
  void modify_entry(EntryHandle h, const std::string& action,
                    std::vector<std::uint64_t> args);

  void delete_entry(EntryHandle h);

  /// Throws UserError unless `action` is bound to the table and takes
  /// exactly `args.size()` args.
  void set_default(const std::string& action, std::vector<std::uint64_t> args);

  /// The spec check add_entry runs (key arity, key widths, full masks on
  /// exact reads, bound action, arg count); throws UserError on failure and
  /// returns the action's id.
  ActionId check_spec(const p4::EntrySpec& spec) const;

  /// The check modify_entry runs on its new action: bound to the table and
  /// taking `nargs` args. Throws UserError; returns the action's id.
  ActionId check_action(const std::string& action, std::size_t nargs) const;

  /// True when every read is exact: add_entry then rejects a second entry
  /// with the same key values.
  bool all_exact() const { return all_exact_; }

  /// All-exact tables: the live entry whose key values equal `key`'s.
  std::optional<EntryHandle> find_exact(const std::vector<p4::MatchValue>& key) const;

  /// Finds an installed entry with this exact key spec (values+masks), if any.
  std::optional<EntryHandle> find_entry(const std::vector<p4::MatchValue>& key) const;

  struct LookupResult {
    bool hit = false;
    ActionId action = 0;  ///< the winning entry's action, or the default
    /// Its args; valid until the table's next mutation.
    std::span<const std::uint64_t> args;
    EntryHandle handle = 0;  ///< valid when hit
    /// Reaction id of the mutation that installed the winning rule (entry
    /// or default), 0 when it predates any reaction.
    std::uint64_t provenance = 0;
  };

  /// Matches `pkt` against the table; returns the winning entry's action or
  /// the default action on miss.
  LookupResult lookup(const Packet& pkt) const;

  std::size_t entry_count() const { return store_.size() / stride_; }
  std::size_t capacity() const { return decl_->size; }

  /// True when `h` is a live handle.
  bool contains(EntryHandle h) const {
    const std::size_t pos = lower_position(h);
    return pos < entry_count() && record(pos)[kHandle] == h;
  }

  /// The installed entry as a spec (throws UserError on a bad handle).
  p4::EntrySpec entry(EntryHandle h) const;

  /// All live handles (stable iteration order: ascending handle).
  std::vector<EntryHandle> handles() const;

  /// Heap bytes the entry store and its index hold (capacity, not size).
  std::size_t storage_bytes() const;

  /// Appends a deterministic description of the table (default action,
  /// entries sorted by handle) for flight-recorder snapshots.
  void write_snapshot(std::string& out) const;

 private:
  // Record layout, `stride_` words: kHandle, kProvenance, kActionPriority
  // (action id << 32 | priority as uint32), then a value/mask pair per read
  // from kKey, then the args, padded to the widest bound action.
  static constexpr std::size_t kHandle = 0;
  static constexpr std::size_t kProvenance = 1;
  static constexpr std::size_t kActionPriority = 2;
  static constexpr std::size_t kKey = 3;

  const p4::Program* prog_;
  const p4::TableDecl* decl_;
  std::vector<ActionId> bound_;  ///< ids of decl_->actions, in order
  bool all_exact_ = false;
  std::size_t stride_ = kKey;
  std::vector<std::uint64_t> store_;  ///< records, ascending handle
  /// All-exact tables: open addressing on key values; slot = position + 1,
  /// 0 = empty. Size is 0 or a power of two, 2-8x the entry count.
  std::vector<std::uint32_t> index_;
  /// Other tables: record positions, highest precedence first.
  std::vector<std::uint32_t> order_;
  EntryHandle next_handle_ = 1;

  ActionId default_action_ = 0;
  std::vector<std::uint64_t> default_args_;
  std::uint64_t default_provenance_ = 0;
  telemetry::ProvenanceContext* prov_ = nullptr;

  const std::uint64_t* record(std::size_t pos) const {
    return store_.data() + pos * stride_;
  }
  std::uint64_t* record(std::size_t pos) { return store_.data() + pos * stride_; }
  /// First position whose handle is not below `h` (binary search).
  std::size_t lower_position(EntryHandle h) const;
  /// Position of `h` in the store; throws UserError on a bad handle.
  std::size_t position(EntryHandle h) const;
  static ActionId action_of(const std::uint64_t* rec) {
    return static_cast<ActionId>(rec[kActionPriority] >> 32);
  }
  static std::int32_t priority_of(const std::uint64_t* rec) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(rec[kActionPriority]));
  }
  std::span<const std::uint64_t> args_of(const std::uint64_t* rec) const;
  void write_action(std::uint64_t* rec, ActionId action,
                    std::span<const std::uint64_t> args) const;
  /// Precedence of a record: priority, then total LPM prefix length.
  std::pair<std::int32_t, unsigned> rank(const std::uint64_t* rec) const;
  bool matches(const std::uint64_t* rec, const Packet& pkt) const;
  /// The index slot where the probe for record `pos`'s key starts.
  std::size_t home_slot(std::size_t pos) const;
  void index_insert(std::uint32_t pos);
  /// Removes record `pos` from the index (positions not yet shifted).
  void index_erase(std::size_t pos);
  void rebuild_index();
  /// Reports this mutation to the provenance layer; returns the entry stamp.
  std::uint64_t stamp_mutation();
};

}  // namespace mantis::sim
