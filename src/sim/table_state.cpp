#include "sim/table_state.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "telemetry/provenance.hpp"
#include "util/bits.hpp"

namespace mantis::sim {

namespace {

/// Prefix length of an LPM mask (number of leading set bits within width).
unsigned prefix_length(std::uint64_t mask, unsigned width) {
  unsigned len = 0;
  for (unsigned bit = width; bit-- > 0;) {
    if ((mask >> bit) & 1) {
      ++len;
    } else {
      break;
    }
  }
  return len;
}

/// Hash of a key's values; `value_at(i)` yields component i.
template <typename ValueAt>
std::uint64_t key_hash(std::size_t arity, ValueAt value_at) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < arity; ++i) {
    h = (h ^ value_at(i)) * 0x9e3779b97f4a7c15ull;
    h ^= h >> 29;
  }
  return h;
}

/// Open-addressing probe of an exact index for the key `value_at` yields.
/// `keys` points at record 0's first key value; records are `stride` words
/// apart and hold a value/mask pair per component. Returns the position.
template <typename ValueAt>
std::optional<std::size_t> probe(const std::vector<std::uint32_t>& index,
                                 const std::uint64_t* keys, std::size_t stride,
                                 std::size_t arity, ValueAt value_at) {
  if (index.empty()) return std::nullopt;
  const std::size_t mask = index.size() - 1;
  for (std::size_t i = key_hash(arity, value_at) & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = index[i];
    if (slot == 0) return std::nullopt;  // load <= 1/2: an empty slot exists
    const std::uint64_t* key = keys + (slot - 1) * stride;
    std::size_t k = 0;
    while (k < arity && key[2 * k] == value_at(k)) ++k;
    if (k == arity) return slot - 1;
  }
}

ActionId action_id(const p4::Program& prog, const std::string& name) {
  const auto* act = prog.find_action(name);
  ensures(act != nullptr, "TableState: action missing from program: " + name);
  return static_cast<ActionId>(act - prog.actions.data());
}

}  // namespace

TableState::TableState(const p4::Program& prog, const p4::TableDecl& decl)
    : prog_(&prog), decl_(&decl) {
  all_exact_ = !decl.reads.empty() &&
               std::all_of(decl.reads.begin(), decl.reads.end(),
                           [](const p4::MatchSpec& m) {
                             return m.kind == p4::MatchKind::kExact;
                           });
  std::size_t max_args = 0;
  for (const auto& name : decl.actions) {
    bound_.push_back(action_id(prog, name));
    max_args = std::max(max_args, prog.actions[bound_.back()].params.size());
  }
  stride_ = kKey + 2 * decl.reads.size() + max_args;
  // P4-14 default-default: no_op. A SwitchImage guarantees the program
  // contains a no_op action named "_no_op_".
  default_action_ = action_id(
      prog, decl.default_action.empty() ? "_no_op_" : decl.default_action);
  default_args_ = decl.default_action_args;
}

ActionId TableState::check_action(const std::string& action,
                                  std::size_t nargs) const {
  const auto it = std::find(decl_->actions.begin(), decl_->actions.end(), action);
  if (it == decl_->actions.end()) {
    throw UserError("table " + name() + ": action " + action +
                    " not bound to table");
  }
  const ActionId id = bound_[static_cast<std::size_t>(it - decl_->actions.begin())];
  const std::size_t want = prog_->actions[id].params.size();
  if (want != nargs) {
    throw UserError("table " + name() + ": action " + action + " expects " +
                    std::to_string(want) + " args, got " +
                    std::to_string(nargs));
  }
  return id;
}

ActionId TableState::check_spec(const p4::EntrySpec& spec) const {
  if (spec.key.size() != decl_->reads.size()) {
    throw UserError("table " + name() + ": key arity " +
                    std::to_string(spec.key.size()) + " != " +
                    std::to_string(decl_->reads.size()));
  }
  const ActionId action = check_action(spec.action, spec.action_args.size());
  for (std::size_t i = 0; i < spec.key.size(); ++i) {
    const auto width = prog_->fields.width(decl_->reads[i].field);
    const auto m = mask_for_width(width);
    if ((spec.key[i].value & ~m) != 0) {
      throw UserError("table " + name() + ": key component " + std::to_string(i) +
                      " wider than field");
    }
    if (decl_->reads[i].kind == p4::MatchKind::kExact &&
        (spec.key[i].mask & m) != m) {
      throw UserError("table " + name() + ": exact key component " +
                      std::to_string(i) + " must use a full mask");
    }
  }
  return action;
}

EntryHandle TableState::add_entry(const p4::EntrySpec& spec) {
  const ActionId action = check_spec(spec);
  if (entry_count() >= decl_->size) {
    throw UserError("table " + name() + ": full (" + std::to_string(decl_->size) +
                    " entries)");
  }
  if (find_exact(spec.key)) {
    throw UserError("table " + name() + ": duplicate exact key");
  }
  const EntryHandle h = next_handle_++;
  const std::size_t pos = entry_count();
  store_.resize(store_.size() + stride_);
  std::uint64_t* rec = record(pos);
  rec[kHandle] = h;
  rec[kProvenance] = stamp_mutation();
  rec[kActionPriority] = static_cast<std::uint32_t>(spec.priority);
  for (std::size_t i = 0; i < spec.key.size(); ++i) {
    rec[kKey + 2 * i] = spec.key[i].value;
    rec[kKey + 2 * i + 1] = spec.key[i].mask;
  }
  write_action(rec, action, spec.action_args);
  if (all_exact_) {
    if (2 * entry_count() > index_.size()) {
      rebuild_index();
    } else {
      index_insert(static_cast<std::uint32_t>(pos));
    }
  } else {
    // Ties keep insert order: the new entry goes after every equal rank.
    const auto r = rank(rec);
    const auto at = std::upper_bound(
        order_.begin(), order_.end(), r,
        [this](const auto& want, std::uint32_t p) { return want > rank(record(p)); });
    order_.insert(at, static_cast<std::uint32_t>(pos));
  }
  return h;
}

void TableState::modify_entry(EntryHandle h, const std::string& action,
                              std::vector<std::uint64_t> args) {
  std::uint64_t* rec = record(position(h));
  write_action(rec, check_action(action, args.size()), args);
  rec[kProvenance] = stamp_mutation();
}

void TableState::delete_entry(EntryHandle h) {
  const std::size_t pos = position(h);
  if (all_exact_) {
    index_erase(pos);  // hashes keys, so before the store shifts
  } else {
    order_.erase(std::find(order_.begin(), order_.end(), pos));
  }
  const auto first = store_.begin() + static_cast<std::ptrdiff_t>(pos * stride_);
  store_.erase(first, first + static_cast<std::ptrdiff_t>(stride_));
  if (store_.size() * 4 < store_.capacity()) store_.shrink_to_fit();
  // The records after `pos` moved down one place.
  if (all_exact_) {
    for (auto& slot : index_) {
      if (slot > pos + 1) --slot;
    }
    if (8 * entry_count() < index_.size()) rebuild_index();
  } else {
    for (auto& p : order_) {
      if (p > pos) --p;
    }
  }
  stamp_mutation();  // marks the live reaction as having mutated state
}

void TableState::set_default(const std::string& action,
                             std::vector<std::uint64_t> args) {
  if (std::find(decl_->actions.begin(), decl_->actions.end(), action) ==
      decl_->actions.end()) {
    throw UserError("table " + name() + ": default action " + action +
                    " not bound to table");
  }
  default_action_ = check_action(action, args.size());
  default_args_ = std::move(args);
  default_provenance_ = stamp_mutation();
}

std::optional<EntryHandle> TableState::find_exact(
    const std::vector<p4::MatchValue>& key) const {
  if (!all_exact_ || key.size() != decl_->reads.size()) return std::nullopt;
  const auto pos = probe(index_, store_.data() + kKey, stride_, key.size(),
                         [&](std::size_t i) { return key[i].value; });
  if (!pos) return std::nullopt;
  return record(*pos)[kHandle];
}

std::optional<EntryHandle> TableState::find_entry(
    const std::vector<p4::MatchValue>& key) const {
  if (key.size() != decl_->reads.size()) return std::nullopt;
  for (std::size_t pos = 0; pos < entry_count(); ++pos) {
    const std::uint64_t* rec = record(pos);
    std::size_t i = 0;
    while (i < key.size() && rec[kKey + 2 * i] == key[i].value &&
           rec[kKey + 2 * i + 1] == key[i].mask) {
      ++i;
    }
    if (i == key.size()) return rec[kHandle];
  }
  return std::nullopt;
}

bool TableState::matches(const std::uint64_t* rec, const Packet& pkt) const {
  const auto& reads = decl_->reads;
  for (std::size_t i = 0; i < reads.size(); ++i) {
    const std::uint64_t value = rec[kKey + 2 * i];
    const std::uint64_t mask = rec[kKey + 2 * i + 1];
    const std::uint64_t field_val = pkt.get(reads[i].field);
    switch (reads[i].kind) {
      case p4::MatchKind::kExact:
        if (field_val != value) return false;
        break;
      case p4::MatchKind::kTernary:
      case p4::MatchKind::kLpm:
        if ((field_val & mask) != (value & mask)) return false;
        break;
      case p4::MatchKind::kValid:
        // All headers are considered valid in the pre-parsed model; a key
        // value of 1 matches, 0 never does.
        if (value != 1) return false;
        break;
    }
  }
  return true;
}

TableState::LookupResult TableState::lookup(const Packet& pkt) const {
  LookupResult res;
  res.action = default_action_;
  res.args = default_args_;
  res.provenance = default_provenance_;
  if (decl_->reads.empty()) return res;  // default-action-only table

  const std::uint64_t* rec = nullptr;
  if (all_exact_) {
    const auto& reads = decl_->reads;
    const auto pos =
        probe(index_, store_.data() + kKey, stride_, reads.size(),
              [&](std::size_t i) { return pkt.get(reads[i].field); });
    if (pos) rec = record(*pos);
  } else {
    for (const std::uint32_t pos : order_) {
      if (matches(record(pos), pkt)) {
        rec = record(pos);
        break;
      }
    }
  }
  if (rec == nullptr) return res;
  return LookupResult{true, action_of(rec), args_of(rec), rec[kHandle],
                      rec[kProvenance]};
}

std::size_t TableState::lower_position(EntryHandle h) const {
  std::size_t lo = 0;
  std::size_t hi = entry_count();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (record(mid)[kHandle] < h) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::size_t TableState::position(EntryHandle h) const {
  const std::size_t pos = lower_position(h);
  if (pos == entry_count() || record(pos)[kHandle] != h) {
    throw UserError("table " + name() + ": bad handle");
  }
  return pos;
}

std::span<const std::uint64_t> TableState::args_of(
    const std::uint64_t* rec) const {
  return {rec + kKey + 2 * decl_->reads.size(),
          prog_->actions[action_of(rec)].params.size()};
}

void TableState::write_action(std::uint64_t* rec, ActionId action,
                              std::span<const std::uint64_t> args) const {
  rec[kActionPriority] = (static_cast<std::uint64_t>(action) << 32) |
                         (rec[kActionPriority] & 0xffffffffull);
  std::uint64_t* out = rec + kKey + 2 * decl_->reads.size();
  const std::size_t room = stride_ - (kKey + 2 * decl_->reads.size());
  std::copy(args.begin(), args.end(), out);
  std::fill(out + args.size(), out + room, 0);
}

std::pair<std::int32_t, unsigned> TableState::rank(
    const std::uint64_t* rec) const {
  unsigned prefix = 0;
  for (std::size_t i = 0; i < decl_->reads.size(); ++i) {
    if (decl_->reads[i].kind == p4::MatchKind::kLpm) {
      prefix += prefix_length(rec[kKey + 2 * i + 1],
                              prog_->fields.width(decl_->reads[i].field));
    }
  }
  return {priority_of(rec), prefix};
}

std::size_t TableState::home_slot(std::size_t pos) const {
  const std::uint64_t* key = record(pos) + kKey;
  return key_hash(decl_->reads.size(),
                  [&](std::size_t k) { return key[2 * k]; }) &
         (index_.size() - 1);
}

void TableState::index_insert(std::uint32_t pos) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home_slot(pos);
  while (index_[i] != 0) i = (i + 1) & mask;
  index_[i] = pos + 1;
}

void TableState::index_erase(std::size_t pos) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home_slot(pos);
  while (index_[hole] != pos + 1) hole = (hole + 1) & mask;
  // Backward-shift deletion keeps every probe run gap-free: a later slot
  // moves into the hole unless its home lies cyclically after the hole.
  for (std::size_t j = (hole + 1) & mask; index_[j] != 0; j = (j + 1) & mask) {
    if (((j - home_slot(index_[j] - 1)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = 0;
}

void TableState::rebuild_index() {
  const std::size_t n = entry_count();
  std::vector<std::uint32_t>(
      n == 0 ? 0 : std::bit_ceil(std::max<std::size_t>(8, 2 * n)))
      .swap(index_);
  for (std::size_t pos = 0; pos < n; ++pos) {
    index_insert(static_cast<std::uint32_t>(pos));
  }
}

std::vector<EntryHandle> TableState::handles() const {
  std::vector<EntryHandle> out;
  out.reserve(entry_count());
  for (std::size_t pos = 0; pos < entry_count(); ++pos) {
    out.push_back(record(pos)[kHandle]);
  }
  return out;
}

p4::EntrySpec TableState::entry(EntryHandle h) const {
  const std::uint64_t* rec = record(position(h));
  p4::EntrySpec spec;
  for (std::size_t i = 0; i < decl_->reads.size(); ++i) {
    spec.key.push_back(p4::MatchValue{rec[kKey + 2 * i], rec[kKey + 2 * i + 1]});
  }
  spec.priority = priority_of(rec);
  spec.action = prog_->actions[action_of(rec)].name;
  const auto args = args_of(rec);
  spec.action_args.assign(args.begin(), args.end());
  return spec;
}

std::size_t TableState::storage_bytes() const {
  return store_.capacity() * sizeof(std::uint64_t) +
         index_.capacity() * sizeof(std::uint32_t) +
         order_.capacity() * sizeof(std::uint32_t);
}

std::uint64_t TableState::stamp_mutation() {
  return prov_ != nullptr ? prov_->on_table_mutation() : 0;
}

void TableState::write_snapshot(std::string& out) const {
  std::ostringstream s;
  s << "table " << name() << " entries=" << entry_count() << "/"
    << decl_->size << "\n";
  s << "  default " << prog_->actions[default_action_].name;
  for (auto a : default_args_) s << " " << a;
  if (default_provenance_ != 0) s << " rid=" << default_provenance_;
  s << "\n";
  // The store is in handle order, so iteration is deterministic.
  constexpr std::size_t kMaxEntries = 64;
  for (std::size_t pos = 0; pos < entry_count(); ++pos) {
    if (pos >= kMaxEntries) {
      s << "  ... " << (entry_count() - kMaxEntries) << " more\n";
      break;
    }
    const std::uint64_t* rec = record(pos);
    s << "  entry " << rec[kHandle] << " key";
    for (std::size_t i = 0; i < decl_->reads.size(); ++i) {
      s << " " << rec[kKey + 2 * i] << "/" << rec[kKey + 2 * i + 1];
    }
    s << " -> " << prog_->actions[action_of(rec)].name;
    for (auto a : args_of(rec)) s << " " << a;
    if (priority_of(rec) != 0) s << " prio=" << priority_of(rec);
    if (rec[kProvenance] != 0) s << " rid=" << rec[kProvenance];
    s << "\n";
  }
  out += s.str();
}

}  // namespace mantis::sim
