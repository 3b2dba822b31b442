// Model-based property tests: randomized workloads checked against simple
// reference implementations.
//  * TableState vs a brute-force reference table, in lockstep over random
//    add/modify/delete/set_default/lookup streams, and its storage under
//    handle churn.
//  * first_fit_decreasing vs bin-packing invariants.
//  * The DoS estimator's sampling error bound vs ground truth.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "compile/packing.hpp"
#include "p4r/sema.hpp"
#include "sim/table_state.hpp"
#include "util/rng.hpp"

namespace mantis {
namespace {

constexpr std::uint64_t kFull = ~std::uint64_t{0};

// ---------------------------------------------------------------------------
// TableState vs reference matcher
// ---------------------------------------------------------------------------

struct RefEntry {
  p4::EntrySpec spec;
  std::uint64_t seq;
};

/// Brute-force reference: same tie-break rules as documented for TableState.
std::optional<std::size_t> reference_lookup(
    const p4::Program& prog, const p4::TableDecl& decl,
    const std::vector<RefEntry>& entries, const sim::Packet& pkt) {
  auto matches = [&](const RefEntry& e) {
    for (std::size_t i = 0; i < decl.reads.size(); ++i) {
      const auto v = pkt.get(decl.reads[i].field);
      const auto& k = e.spec.key[i];
      switch (decl.reads[i].kind) {
        case p4::MatchKind::kExact:
          if (v != k.value) return false;
          break;
        case p4::MatchKind::kTernary:
        case p4::MatchKind::kLpm:
          if ((v & k.mask) != (k.value & k.mask)) return false;
          break;
        case p4::MatchKind::kValid:
          if (k.value != 1) return false;
          break;
      }
    }
    return true;
  };
  auto prefix_of = [&](const RefEntry& e) {
    unsigned total = 0;
    for (std::size_t i = 0; i < decl.reads.size(); ++i) {
      if (decl.reads[i].kind != p4::MatchKind::kLpm) continue;
      const auto width = prog.fields.width(decl.reads[i].field);
      for (unsigned b = width; b-- > 0;) {
        if ((e.spec.key[i].mask >> b) & 1) {
          ++total;
        } else {
          break;
        }
      }
    }
    return total;
  };

  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!matches(entries[i])) continue;
    if (!best.has_value()) {
      best = i;
      continue;
    }
    const auto& cur = entries[i];
    const auto& winner = entries[*best];
    if (cur.spec.priority > winner.spec.priority ||
        (cur.spec.priority == winner.spec.priority &&
         prefix_of(cur) > prefix_of(winner)) ||
        (cur.spec.priority == winner.spec.priority &&
         prefix_of(cur) == prefix_of(winner) && cur.seq < winner.seq)) {
      best = i;
    }
  }
  return best;
}

struct MatchModelCase {
  p4::MatchKind kind;  ///< h.a's match kind
  const char* name;
  p4::MatchKind kind_b = p4::MatchKind::kTernary;  ///< h.b's
};

// Printed by name: gtest's default dumps the struct's bytes, padding and
// pointers included, which would make the discovered test names vary.
void PrintTo(const MatchModelCase& c, std::ostream* os) { *os << c.name; }

class TableModelProperty : public ::testing::TestWithParam<MatchModelCase> {};

// ---------------------------------------------------------------------------
// Lockstep oracle: random add/modify/delete/set_default/lookup streams run
// on a TableState and on a brute-force model side by side.
// ---------------------------------------------------------------------------

/// Table `t` reading h.a (16 bits) and h.b (8 bits) with the case's kinds;
/// actions mark(v) and tag(v, w) are bound, `_no_op_` is not.
struct ModelTable {
  p4::Program prog;
  MatchModelCase c;

  explicit ModelTable(MatchModelCase mc) : c(mc) {
    p4::add_standard_metadata(prog);
    prog.add_metadata_instance("h_t", "h", {{"a", 16}, {"b", 8}});
    p4::ActionDecl mark;
    mark.name = "mark";
    mark.params.push_back(p4::ActionParam{"v", 16});
    prog.actions.push_back(mark);
    p4::ActionDecl tag;
    tag.name = "tag";
    tag.params = {p4::ActionParam{"v", 16}, p4::ActionParam{"w", 16}};
    prog.actions.push_back(tag);
    p4::ActionDecl noop;
    noop.name = "_no_op_";
    prog.actions.push_back(noop);
    p4::TableDecl decl;
    decl.name = "t";
    decl.reads = {{prog.fields.require("h.a"), c.kind, ""},
                  {prog.fields.require("h.b"), c.kind_b, ""}};
    decl.actions = {"mark", "tag"};
    decl.size = 48;
    prog.tables.push_back(decl);
  }

  const p4::TableDecl& decl() const { return prog.tables[0]; }

  static p4::MatchValue random_component(Rng& rng, p4::MatchKind kind,
                                         unsigned width) {
    const std::uint64_t value = rng.uniform(std::uint64_t{1} << width);
    switch (kind) {
      case p4::MatchKind::kTernary: {
        const std::uint64_t mask = rng.uniform(std::uint64_t{1} << width);
        return {value & mask, mask};
      }
      case p4::MatchKind::kLpm: {
        const auto plen = static_cast<unsigned>(rng.uniform(width + 1));
        const std::uint64_t mask =
            plen == 0 ? 0 : mask_for_width(plen) << (width - plen);
        return {value & mask, mask};
      }
      default:  // exact: either spelling of a full mask
        return {value, rng.uniform(2) == 0 ? kFull : mask_for_width(width)};
    }
  }

  /// A random valid entry (narrow key space, so keys and ties repeat).
  p4::EntrySpec random_spec(Rng& rng) const {
    p4::EntrySpec spec;
    spec.key.push_back(random_component(rng, c.kind, 16));
    spec.key[0].value &= 0x1f0f;  // few distinct values: duplicates happen
    spec.key.push_back(random_component(rng, c.kind_b, 8));
    spec.key[1].value &= 0x0f;
    spec.priority = static_cast<std::int32_t>(rng.uniform(3)) - 1;
    if (rng.uniform(2) == 0) {
      spec.action = "mark";
      spec.action_args = {rng.uniform(1000)};
    } else {
      spec.action = "tag";
      spec.action_args = {rng.uniform(1000), rng.uniform(1000)};
    }
    return spec;
  }

  bool all_exact() const {
    return c.kind == p4::MatchKind::kExact && c.kind_b == p4::MatchKind::kExact;
  }
};

TEST_P(TableModelProperty, RandomEntriesMatchReference) {
  ModelTable m(GetParam());
  sim::TableState table(m.prog, m.decl());
  Rng rng(0x10c5 + static_cast<std::uint64_t>(GetParam().kind) * 7 +
          static_cast<std::uint64_t>(GetParam().kind_b));

  // The model: live entries in handle (= insert) order, seq = handle.
  std::vector<RefEntry> ref;
  sim::EntryHandle next_handle = 1;
  std::vector<sim::EntryHandle> dead;
  std::string default_action = "_no_op_";
  std::vector<std::uint64_t> default_args;
  const auto fa = m.prog.fields.require("h.a");
  const auto fb = m.prog.fields.require("h.b");

  auto find_ref = [&](sim::EntryHandle h) {
    return std::find_if(ref.begin(), ref.end(),
                        [&](const RefEntry& e) { return e.seq == h; });
  };
  auto pick_handle = [&]() -> sim::EntryHandle {
    if (!dead.empty() && (ref.empty() || rng.uniform(5) == 0)) {
      return dead[rng.uniform(dead.size())];  // stale
    }
    return ref.empty() ? 999 : ref[rng.uniform(ref.size())].seq;
  };
  auto random_args = [&](std::size_t n) {
    std::vector<std::uint64_t> args;
    for (std::size_t i = 0; i < n; ++i) args.push_back(rng.uniform(1000));
    return args;
  };
  auto random_action = [&](std::string& action, std::vector<std::uint64_t>& args) {
    action = rng.uniform(2) == 0 ? "mark" : "tag";
    const std::size_t want = action == "mark" ? 1 : 2;
    // One op in six carries the wrong arg count and must be rejected.
    args = random_args(rng.uniform(6) == 0 ? want + 1 : want);
    return args.size() == want;
  };

  for (int step = 0; step < 3000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const auto op = rng.uniform(100);
    if (op < 40) {
      auto spec = m.random_spec(rng);
      if (!ref.empty() && rng.uniform(5) == 0) {
        spec.key = ref[rng.uniform(ref.size())].spec.key;  // reuse a live key
      }
      bool dup = false;
      for (const auto& e : ref) {
        dup = dup || (m.all_exact() && e.spec.key[0].value == spec.key[0].value &&
                      e.spec.key[1].value == spec.key[1].value);
      }
      if (ref.size() >= m.decl().size || dup) {
        EXPECT_THROW(table.add_entry(spec), UserError);
      } else {
        ASSERT_EQ(table.add_entry(spec), next_handle);
        ref.push_back(RefEntry{spec, next_handle++});
      }
    } else if (op < 60) {
      const auto h = pick_handle();
      std::string action;
      std::vector<std::uint64_t> args;
      const bool valid = random_action(action, args);
      const auto it = find_ref(h);
      if (it == ref.end() || !valid) {
        EXPECT_THROW(table.modify_entry(h, action, args), UserError);
      } else {
        table.modify_entry(h, action, args);
        it->spec.action = action;
        it->spec.action_args = args;
      }
    } else if (op < 75) {
      const auto h = pick_handle();
      const auto it = find_ref(h);
      if (it == ref.end()) {
        EXPECT_THROW(table.delete_entry(h), UserError);
      } else {
        table.delete_entry(h);
        ref.erase(it);
        dead.push_back(h);
      }
    } else if (op < 80) {
      std::string action;
      std::vector<std::uint64_t> args;
      if (random_action(action, args)) {
        table.set_default(action, args);
        default_action = action;
        default_args = args;
      } else {
        EXPECT_THROW(table.set_default(action, args), UserError);
      }
    }

    // Every step: count, handle order, entry round trip and one lookup.
    ASSERT_EQ(table.entry_count(), ref.size());
    std::vector<sim::EntryHandle> want_handles;
    for (const auto& e : ref) want_handles.push_back(e.seq);
    ASSERT_EQ(table.handles(), want_handles);
    if (!ref.empty()) {
      const auto& e = ref[rng.uniform(ref.size())];
      const auto got = table.entry(e.seq);
      EXPECT_EQ(got.key, e.spec.key);
      EXPECT_EQ(got.priority, e.spec.priority);
      EXPECT_EQ(got.action, e.spec.action);
      EXPECT_EQ(got.action_args, e.spec.action_args);
    }
    sim::Packet pkt(m.prog.fields.size());
    if (!ref.empty() && rng.uniform(2) == 0) {
      const auto& e = ref[rng.uniform(ref.size())];
      pkt.set(fa, e.spec.key[0].value, 16);
      pkt.set(fb, e.spec.key[1].value, 8);
    } else {
      pkt.set(fa, rng.uniform(1 << 16), 16);
      pkt.set(fb, rng.uniform(256), 8);
    }
    const auto expected = reference_lookup(m.prog, m.decl(), ref, pkt);
    const auto got = table.lookup(pkt);
    ASSERT_EQ(got.hit, expected.has_value());
    const std::vector<std::uint64_t> got_args(got.args.begin(), got.args.end());
    if (expected.has_value()) {
      const auto& e = ref[*expected];
      EXPECT_EQ(got.handle, e.seq);
      EXPECT_EQ(m.prog.actions[got.action].name, e.spec.action);
      EXPECT_EQ(got_args, e.spec.action_args);
    } else {
      EXPECT_EQ(m.prog.actions[got.action].name, default_action);
      EXPECT_EQ(got_args, default_args);
    }
  }
  EXPECT_GT(next_handle, 300u);  // the stream did churn
}

TEST_P(TableModelProperty, ChurnStorageFollowsLiveEntries) {
  ModelTable m(GetParam());
  Rng rng(0xc4u + static_cast<std::uint64_t>(GetParam().kind));
  constexpr std::size_t kLive = 32;

  // Storage of a fresh table filled once to the peak live count.
  sim::TableState filled(m.prog, m.decl());
  while (filled.entry_count() < kLive + 1) {
    try {
      filled.add_entry(m.random_spec(rng));
    } catch (const UserError&) {
      // duplicate exact key: draw again
    }
  }

  // Thousands of handles issued, never more than kLive + 1 live.
  sim::TableState churned(m.prog, m.decl());
  sim::EntryHandle last = 0;
  while (last < 5000) {
    try {
      last = churned.add_entry(m.random_spec(rng));
    } catch (const UserError&) {
      continue;
    }
    if (churned.entry_count() > kLive) {
      const auto hs = churned.handles();
      churned.delete_entry(hs[rng.uniform(hs.size())]);
    }
  }
  EXPECT_EQ(churned.entry_count(), kLive);
  EXPECT_LE(churned.storage_bytes(), 2 * filled.storage_bytes());
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TableModelProperty,
    ::testing::Values(
        MatchModelCase{p4::MatchKind::kExact, "exact"},
        MatchModelCase{p4::MatchKind::kTernary, "ternary"},
        MatchModelCase{p4::MatchKind::kLpm, "lpm"},
        MatchModelCase{p4::MatchKind::kExact, "exact_exact", p4::MatchKind::kExact},
        MatchModelCase{p4::MatchKind::kLpm, "lpm_lpm", p4::MatchKind::kLpm},
        MatchModelCase{p4::MatchKind::kLpm, "lpm_exact", p4::MatchKind::kExact}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// Packing invariants
// ---------------------------------------------------------------------------

class PackingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PackingProperty, InvariantsHold) {
  Rng rng(GetParam());
  std::vector<compile::PackItem> items;
  const int n = 1 + static_cast<int>(rng.uniform(40));
  const unsigned cap = 16 + static_cast<unsigned>(rng.uniform(48));
  unsigned total = 0;
  for (int i = 0; i < n; ++i) {
    const unsigned size = 1 + static_cast<unsigned>(rng.uniform(cap + 8));
    items.push_back(compile::PackItem{"i" + std::to_string(i), size});
    total += size;
  }
  const auto bins = compile::first_fit_decreasing(items, cap);

  // Every item appears exactly once.
  std::vector<int> seen(items.size(), 0);
  for (const auto& bin : bins) {
    unsigned used = 0;
    for (const auto idx : bin.items) {
      ++seen[idx];
      used += items[idx].size;
    }
    EXPECT_EQ(used, bin.used);
    // No bin exceeds capacity unless it holds a single oversized item.
    if (bin.used > cap) {
      EXPECT_EQ(bin.items.size(), 1u);
    }
  }
  for (const auto s : seen) EXPECT_EQ(s, 1);

  // FFD quality: bins <= 2 * lower bound + oversized count (loose sanity).
  std::size_t oversized = 0;
  for (const auto& item : items) {
    if (item.size > cap) ++oversized;
  }
  const std::size_t lower = (total + cap - 1) / cap;
  EXPECT_LE(bins.size(), 2 * lower + oversized + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace mantis
