// Model-based property tests: randomized workloads checked against simple
// reference implementations.
//  * TableState's match engines vs a brute-force reference matcher.
//  * first_fit_decreasing vs bin-packing invariants.
//  * The DoS estimator's sampling error bound vs ground truth.
#include <gtest/gtest.h>

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
  p4::MatchKind kind;
  const char* name;
};

// Printed by name: gtest's default dumps the struct's bytes, padding and
// pointers included, which would make the discovered test names vary.
void PrintTo(const MatchModelCase& c, std::ostream* os) { *os << c.name; }

class TableModelProperty : public ::testing::TestWithParam<MatchModelCase> {};

TEST_P(TableModelProperty, RandomEntriesMatchReference) {
  p4::Program prog;
  p4::add_standard_metadata(prog);
  prog.add_metadata_instance("h_t", "h", {{"a", 16}, {"b", 8}});
  p4::ActionDecl act;
  act.name = "mark";
  act.params.push_back(p4::ActionParam{"v", 16});
  prog.actions.push_back(act);
  p4::ActionDecl noop;
  noop.name = "_no_op_";
  prog.actions.push_back(noop);

  p4::TableDecl decl;
  decl.name = "t";
  decl.reads = {{prog.fields.require("h.a"), GetParam().kind, ""},
                {prog.fields.require("h.b"), p4::MatchKind::kTernary, ""}};
  decl.actions = {"mark"};
  decl.size = 64;
  prog.tables.push_back(decl);

  sim::TableState table(prog, prog.tables[0]);
  Rng rng(0xfeed + static_cast<std::uint64_t>(GetParam().kind));
  std::vector<RefEntry> reference;

  // Install random entries (skip duplicates the engine rejects).
  for (int i = 0; i < 40; ++i) {
    p4::EntrySpec spec;
    const std::uint64_t a_val = rng.uniform(1 << 16);
    std::uint64_t a_mask = kFull;
    if (GetParam().kind == p4::MatchKind::kTernary) {
      a_mask = rng.uniform(1 << 16);
    } else if (GetParam().kind == p4::MatchKind::kLpm) {
      const unsigned plen = static_cast<unsigned>(rng.uniform(17));
      a_mask = plen == 0 ? 0 : (mask_for_width(plen) << (16 - plen));
    }
    spec.key.push_back(p4::MatchValue{
        GetParam().kind == p4::MatchKind::kExact ? a_val : (a_val & a_mask),
        a_mask});
    const std::uint64_t b_mask = rng.uniform(256);
    spec.key.push_back(p4::MatchValue{rng.uniform(256) & b_mask, b_mask});
    spec.priority = static_cast<std::int32_t>(rng.uniform(4));
    spec.action = "mark";
    spec.action_args = {static_cast<std::uint64_t>(i)};
    try {
      table.add_entry(spec);
      reference.push_back(RefEntry{spec, static_cast<std::uint64_t>(i)});
    } catch (const UserError&) {
      // duplicate exact key — reference skips it too
    }
  }

  // Random probes must agree with the reference on hit identity.
  for (int probe = 0; probe < 500; ++probe) {
    sim::Packet pkt(prog.fields.size());
    pkt.set(prog.fields.require("h.a"), rng.uniform(1 << 16), 16);
    pkt.set(prog.fields.require("h.b"), rng.uniform(256), 8);
    const auto expected = reference_lookup(prog, prog.tables[0], reference, pkt);
    const auto got = table.lookup(pkt);
    ASSERT_EQ(got.hit, expected.has_value());
    if (expected.has_value()) {
      EXPECT_EQ((*got.args)[0], reference[*expected].spec.action_args[0]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, TableModelProperty,
    ::testing::Values(MatchModelCase{p4::MatchKind::kExact, "exact"},
                      MatchModelCase{p4::MatchKind::kTernary, "ternary"},
                      MatchModelCase{p4::MatchKind::kLpm, "lpm"}),
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
    if (bin.used > cap) EXPECT_EQ(bin.items.size(), 1u);
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
