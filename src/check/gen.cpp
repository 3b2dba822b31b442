#include "check/gen.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace mantis::check {

namespace {

/// Internal generation state: richer than GenSpec (the generator needs to
/// know widths, domains, and arities to produce valid traces and entries;
/// the rendered program only needs the text).
struct FieldG {
  std::string name;  ///< full name "hdr.fK"
  unsigned width;
};

struct ActionG {
  std::string name;
  std::size_t params = 0;
  bool uses_mbl_field = false;  ///< body contains ${mfld} (needs specialization)
};

struct ReadG {
  std::string ref;       ///< "hdr.fK" or malleable name (no ${})
  bool malleable = false;
  std::string kind;      ///< exact | ternary | lpm
  unsigned width = 16;
  bool has_premask = false;
  std::uint64_t premask = ~std::uint64_t{0};
};

struct TableG {
  std::string name;
  bool malleable = false;
  std::vector<ReadG> reads;
  std::vector<ActionG> actions;  ///< installable (non-builtin) first
  bool has_drop = false;
  std::size_t size = 64;
};

struct Gen {
  Rng rng;
  const GenOptions& opts;
  Scenario out;

  std::vector<FieldG> fields;
  std::vector<FieldG> writable;    ///< action-writable header fields
  std::vector<std::string> mbl_values;    ///< names
  std::vector<unsigned> mbl_value_width;
  std::string mbl_field;           ///< "" when absent
  std::size_t mbl_field_alts = 0;
  struct RegG { std::string name; unsigned width; std::uint32_t count; };
  std::vector<RegG> regs;
  bool have_counter = false;
  std::vector<ActionG> user_actions;
  std::vector<TableG> match_tables;

  explicit Gen(std::uint64_t seed, const GenOptions& o)
      : rng(seed ^ 0xda7a5eedULL), opts(o) {}

  std::uint64_t u(std::uint64_t bound) { return rng.uniform(bound); }
  bool chance(double p) { return rng.chance(p); }

  std::string num(std::uint64_t v) { return std::to_string(v); }

  void gen_fields() {
    const unsigned pool[] = {8, 16, 16, 24, 32, 32, 48, 64};
    const std::size_t nf = 4 + u(3);  // 4..6
    for (std::size_t i = 0; i < nf; ++i) {
      // The first three fields are fixed 16-bit: match keys and malleable
      // alts need same-width company.
      const unsigned w = i < 3 ? 16 : pool[u(std::size(pool))];
      fields.push_back({"hdr.f" + num(i), w});
    }
    std::string decl = "header_type h_t {\n  fields {\n";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      decl += "    f" + num(i) + " : " + num(fields[i].width) + ";\n";
    }
    decl += "  }\n}\nheader h_t hdr;";
    out.program.decls.push_back(decl);
    out.program.decls.push_back(
        "header_type pm_t { fields { pid : 32; } }\nmetadata pm_t pm;");
    out.program.decls.push_back(
        "header_type scr_t { fields { s0 : 32; s1 : 32; } }\n"
        "metadata scr_t scr;");
    writable = fields;
  }

  void gen_malleables() {
    const std::size_t nv = 1 + u(2);  // 1..2 malleable values
    for (std::size_t i = 0; i < nv; ++i) {
      const unsigned w = std::array<unsigned, 3>{8, 16, 32}[u(3)];
      const std::uint64_t init = u(1ull << std::min(w, 8u));
      const std::string name = "mval" + num(i);
      out.program.decls.push_back("malleable value " + name + " { width : " +
                                  num(w) + "; init : " + num(init) + "; }");
      mbl_values.push_back(name);
      mbl_value_width.push_back(w);
    }
    if (chance(0.7)) {
      // Alts among the fixed-width-16 trio.
      const std::size_t nalts = 2 + u(2);  // 2..3
      mbl_field = "mfld";
      mbl_field_alts = nalts;
      std::string alts;
      for (std::size_t i = 0; i < nalts; ++i) {
        if (i > 0) alts += ", ";
        alts += "hdr.f" + num(i);
      }
      const std::size_t init_alt = u(nalts);
      out.program.decls.push_back(
          "malleable field " + mbl_field + " {\n  width : 16;\n  init : hdr.f" +
          num(init_alt) + ";\n  alts { " + alts + " }\n}");
    }
  }

  void gen_state() {
    const std::size_t nr = 1 + u(2);  // 1..2 registers
    for (std::size_t i = 0; i < nr; ++i) {
      const unsigned w = std::array<unsigned, 3>{16, 32, 48}[u(3)];
      const std::uint32_t count = 1u << (2 + u(3));  // 4, 8, 16
      const std::string name = "r" + num(i);
      out.program.decls.push_back("register " + name + " { width : " + num(w) +
                                  "; instance_count : " + num(count) + "; }");
      regs.push_back({name, w, count});
    }
    if (chance(0.4)) {
      have_counter = true;
      out.program.decls.push_back(
          "counter c0 { type : packets; instance_count : 8; }");
    }
  }

  /// A random source operand for a primitive: const, field, or malleable.
  std::string src_operand() {
    const auto roll = u(10);
    if (roll < 3) return num(u(256));
    if (roll < 7) return fields[u(fields.size())].name;
    if (roll < 9 || mbl_field.empty()) {
      return "${" + mbl_values[u(mbl_values.size())] + "}";
    }
    return "${" + mbl_field + "}";
  }

  std::string dst_operand() {
    // Destinations: header fields or the malleable field (specialized write).
    if (!mbl_field.empty() && chance(0.15)) return "${" + mbl_field + "}";
    return writable[u(writable.size())].name;
  }

  /// Emits one safe primitive line for an action with `params` parameters.
  std::string gen_prim(std::size_t params) {
    switch (u(8)) {
      case 0: {
        std::string src = params > 0 && chance(0.5)
                              ? "p" + num(u(params))
                              : src_operand();
        return "  modify_field(" + dst_operand() + ", " + src + ");";
      }
      case 1:
        return "  add(" + dst_operand() + ", " + src_operand() + ", " +
               src_operand() + ");";
      case 2:
        return "  subtract(" + dst_operand() + ", " + src_operand() + ", " +
               src_operand() + ");";
      case 3: {
        const char* ops[] = {"bit_and", "bit_or", "bit_xor"};
        return std::string("  ") + ops[u(3)] + "(" + dst_operand() + ", " +
               src_operand() + ", " + src_operand() + ");";
      }
      case 4: {
        const char* ops[] = {"shift_left", "shift_right"};
        return std::string("  ") + ops[u(2)] + "(" + dst_operand() + ", " +
               src_operand() + ", " + num(u(8)) + ");";
      }
      case 5: {
        // Register write: const index, or a field masked into range via the
        // scratch metadata (count is a power of two).
        const auto& r = regs[u(regs.size())];
        std::string val = chance(0.5) ? src_operand() : num(u(1024));
        if (chance(0.5)) {
          return "  register_write(" + r.name + ", " + num(u(r.count)) + ", " +
                 val + ");";
        }
        const std::string idx_src = fields[u(fields.size())].name;
        return "  bit_and(scr.s0, " + idx_src + ", " + num(r.count - 1) +
               ");\n  register_write(" + r.name + ", scr.s0, " + val + ");";
      }
      case 6: {
        const auto& r = regs[u(regs.size())];
        return "  register_read(" + writable[u(writable.size())].name + ", " +
               r.name + ", " + num(u(r.count)) + ");";
      }
      default:
        if (have_counter) return "  count(c0, " + num(u(8)) + ");";
        return "  add_to_field(" + dst_operand() + ", " + src_operand() + ");";
    }
  }

  void gen_actions() {
    const std::size_t na = 2 + u(2);  // 2..3 user actions
    for (std::size_t i = 0; i < na; ++i) {
      ActionG a;
      a.name = "act" + num(i);
      a.params = u(3);  // 0..2
      std::string sig = "action " + a.name + "(";
      for (std::size_t p = 0; p < a.params; ++p) {
        if (p > 0) sig += ", ";
        sig += 'p';
        sig += num(p);
      }
      sig += ") {\n";
      const std::size_t np = 1 + u(3);
      for (std::size_t p = 0; p < np; ++p) sig += gen_prim(a.params) + "\n";
      sig += "}";
      a.uses_mbl_field = !mbl_field.empty() &&
                         sig.find("${" + mbl_field + "}") != std::string::npos;
      out.program.actions.push_back(sig);
      user_actions.push_back(a);
    }
    out.program.actions.push_back(
        "action fwd(port) {\n"
        "  modify_field(standard_metadata.egress_spec, port);\n}");
  }

  ReadG gen_read(bool allow_malleable) {
    ReadG r;
    if (allow_malleable && !mbl_field.empty() && chance(0.5)) {
      r.ref = mbl_field;
      r.malleable = true;
      r.width = 16;
      r.kind = chance(0.7) ? "exact" : "ternary";
      if (chance(0.4)) {
        r.has_premask = true;
        r.premask = 0xff00u | u(256);  // keep the domain bits comparable
      }
      return r;
    }
    const std::size_t fi = u(3);  // the 16-bit trio
    r.ref = "hdr.f" + num(fi);
    r.width = 16;
    const auto roll = u(10);
    r.kind = roll < 6 ? "exact" : (roll < 9 ? "ternary" : "lpm");
    return r;
  }

  std::string render_table(const TableG& t, const std::string& default_clause) {
    std::string s = (t.malleable ? std::string("malleable table ")
                                 : std::string("table ")) +
                    t.name + " {\n";
    if (!t.reads.empty()) {
      s += "  reads {\n";
      for (const auto& r : t.reads) {
        s += "    " + (r.malleable ? "${" + r.ref + "}" : r.ref);
        if (r.has_premask) s += " mask " + num(r.premask);
        s += " : " + r.kind + ";\n";
      }
      s += "  }\n";
    }
    s += "  actions { ";
    for (const auto& a : t.actions) s += a.name + "; ";
    if (t.has_drop) s += "_drop; ";
    s += "}\n";
    s += default_clause;
    s += "  size : " + num(t.size) + ";\n}";
    return s;
  }

  void gen_tables() {
    // The malleable table: the serializability machinery's main customer.
    TableG mt;
    mt.name = "mtbl";
    mt.malleable = true;
    mt.reads.push_back(gen_read(true));
    if (chance(0.4)) mt.reads.push_back(gen_read(false));
    mt.actions.push_back(user_actions[0]);
    if (user_actions.size() > 1 && chance(0.8)) {
      mt.actions.push_back(user_actions[1]);
    }
    mt.has_drop = chance(0.3);
    out.program.tables.push_back(render_table(mt, ""));
    match_tables.push_back(mt);

    if (chance(0.6)) {
      TableG pt;
      pt.name = "ptbl";
      pt.malleable = false;
      pt.reads.push_back(gen_read(false));
      pt.actions.push_back(user_actions.back());
      pt.has_drop = chance(0.2);
      std::string dflt;
      // Default actions cannot be specialized, so the clause is only legal
      // when the action never touches the malleable field.
      if (user_actions.back().params == 0 &&
          !user_actions.back().uses_mbl_field && chance(0.5)) {
        dflt = "  default_action : " + user_actions.back().name + ";\n";
      }
      out.program.tables.push_back(render_table(pt, dflt));
      match_tables.push_back(pt);
    }

    out.program.tables.push_back(
        "table forward {\n  actions { fwd; }\n  default_action : fwd(" +
        num(1 + u(4)) + ");\n  size : 1;\n}");

    if (chance(0.35)) {
      // Default-only egress table touching a register or counter.
      const auto& r = regs[u(regs.size())];
      out.program.actions.push_back(
          "action eact() {\n  bit_and(scr.s1, hdr.f1, " + num(r.count - 1) +
          ");\n  register_write(" + r.name + ", scr.s1, hdr.f0);\n}");
      out.program.tables.push_back(
          "table etbl {\n  actions { eact; }\n  default_action : eact;\n"
          "  size : 1;\n}");
      out.program.egress.push_back("  apply(etbl);");
    }
  }

  void gen_control() {
    if (match_tables.size() == 2 && chance(0.5)) {
      const char* ops[] = {"==", "!=", "<", "<=", ">", ">="};
      out.program.ingress.push_back(
          "  if (hdr.f0 " + std::string(ops[u(6)]) + " " +
          num(u(opts.match_domain)) + ") {\n    apply(mtbl);\n  } else {\n"
          "    apply(ptbl);\n  }");
    } else {
      for (const auto& t : match_tables) {
        out.program.ingress.push_back("  apply(" + t.name + ");");
      }
    }
    out.program.ingress.push_back("  apply(forward);");
  }

  // ---- reaction -----------------------------------------------------------

  struct Window { std::string reg; std::uint32_t lo, hi; };
  std::vector<Window> windows;
  std::vector<std::string> field_params;  ///< c_names ("hdr_f3")
  std::string field_param_ref;            ///< first param's "hdr.f3"

  void gen_reaction_sig() {
    std::string sig = "reaction rx(";
    bool first = true;
    auto add = [&](const std::string& p) {
      if (!first) sig += ", ";
      sig += p;
      first = false;
    };
    for (const auto& r : regs) {
      if (!windows.empty() && !chance(0.6)) continue;
      Window w;
      w.reg = r.name;
      w.lo = static_cast<std::uint32_t>(u(r.count));
      w.hi = w.lo + static_cast<std::uint32_t>(u(r.count - w.lo));
      windows.push_back(w);
      add("reg " + r.name + "[" + num(w.lo) + ":" + num(w.hi) + "]");
    }
    const std::size_t fi = u(fields.size());
    field_param_ref = fields[fi].name;
    std::string c_name = field_param_ref;
    std::replace(c_name.begin(), c_name.end(), '.', '_');
    field_params.push_back(c_name);
    add("ing " + field_param_ref);
    if (chance(0.4)) {
      // Avoid the ing param's field: reaction arg c_names must be distinct.
      std::size_t ei = u(3);
      if ("hdr.f" + num(ei) == field_param_ref) ei = (ei + 1) % 3;
      add("egr hdr.f" + num(ei));
      field_params.push_back("hdr_f" + num(ei));
    }
    if (chance(0.3)) add("${" + mbl_values[0] + "}");
    sig += ")";
    out.program.reaction_sig = sig;
  }

  /// Exact key literal list for a match table (respects arity).
  std::string table_key(const TableG& t) {
    std::string k;
    for (std::size_t i = 0; i < t.reads.size(); ++i) {
      if (i > 0) k += ", ";
      k += num(u(opts.match_domain));
    }
    return k;
  }

  std::string action_args(const ActionG& a, bool leading_comma) {
    std::string s;
    for (std::size_t i = 0; i < a.params; ++i) {
      if (i > 0 || leading_comma) s += ", ";
      s += num(u(64));
    }
    return s;
  }

  std::string mask_for(std::size_t value_index) {
    const unsigned w = mbl_value_width[value_index];
    return "0x" + [&] {
      char buf[32];
      snprintf(buf, sizeof buf, "%llx",
               static_cast<unsigned long long>(mask_for_width(w)));
      return std::string(buf);
    }();
  }

  std::string gen_stmt(std::size_t k) {
    const std::string K = num(k);
    const auto roll = u(8);
    if (roll == 0 || windows.empty()) {
      // Log probe over a scalar param (always valid: field params exist).
      return "  log(" + field_params[u(field_params.size())] + ");";
    }
    const auto& w = windows[u(windows.size())];
    const std::string i = "i" + K;
    const std::string loop_hdr = "for (int " + i + " = " + num(w.lo) + "; " +
                                 i + " <= " + num(w.hi) + "; ++" + i + ")";
    switch (roll) {
      case 1:
        return "  " + loop_hdr + " { log(" + w.reg + "[" + i + "]); }";
      case 2: {
        // Argmax over the window into a malleable value (masked to width).
        const std::size_t vi = u(mbl_values.size());
        return "  {\n    long mx" + K + " = -1; long mi" + K + " = " +
               num(w.lo) + ";\n    " + loop_hdr + " {\n      if (" + w.reg +
               "[" + i + "] > mx" + K + ") { mx" + K + " = " + w.reg + "[" +
               i + "]; mi" + K + " = " + i + "; }\n    }\n    ${" +
               mbl_values[vi] + "} = (mi" + K + ") & " + mask_for(vi) +
               ";\n  }";
      }
      case 3: {
        // Sum + threshold-guarded table add/del on the malleable table.
        const auto& t = match_tables[0];
        const auto& a = t.actions[u(t.actions.size())];
        const std::string key = table_key(t);
        const std::string thresh = num(1 + u(64));
        return "  {\n    long s" + K + " = 0;\n    " + loop_hdr + " { s" + K +
               " += " + w.reg + "[" + i + "]; }\n    if (s" + K + " > " +
               thresh + ") {\n      if (!" + t.name + ".hasEntry(" + key +
               ")) { " + t.name + ".addEntry(\"" + a.name + "\", " + key +
               action_args(a, true) + "); }\n    } else {\n      if (" +
               t.name + ".hasEntry(" + key + ")) { " + t.name +
               ".delEntry(" + key + "); }\n    }\n  }";
      }
      case 4: {
        // Static accumulator with threshold-driven malleable update.
        const std::size_t vi = u(mbl_values.size());
        return "  static long acc" + K + ";\n  acc" + K + " += " +
               field_params[0] + " + 1;\n  log(acc" + K + ");\n  if (acc" +
               K + " > " + num(8 + u(64)) + ") { ${" + mbl_values[vi] +
               "} = (acc" + K + ") & " + mask_for(vi) + "; }";
      }
      case 5: {
        if (mbl_field.empty()) return "  log(" + field_params[0] + ");";
        // Selector shift: rotate the malleable field among its alts.
        return "  ${" + mbl_field + "} = ((" + field_params[0] + ") & 0xff) % " +
               num(mbl_field_alts) + ";";
      }
      case 6: {
        const auto& t = match_tables[u(match_tables.size())];
        return "  log(" + t.name + ".entryCount());";
      }
      default: {
        // modEntry when present.
        const auto& t = match_tables[0];
        const auto& a = t.actions[u(t.actions.size())];
        const std::string key = table_key(t);
        return "  if (" + t.name + ".hasEntry(" + key + ")) { " + t.name +
               ".modEntry(\"" + a.name + "\", " + key + action_args(a, true) +
               "); }";
      }
    }
  }

  void gen_reaction_body() {
    const std::size_t n = 2 + u(4);  // 2..5 statements
    for (std::size_t k = 0; k < n; ++k) {
      out.program.reaction_stmts.push_back(gen_stmt(k));
    }
  }

  // ---- runtime: initial entries + trace -----------------------------------

  void gen_entries() {
    for (const auto& t : match_tables) {
      const std::size_t n = u(opts.max_initial_entries + 1);
      std::set<std::vector<std::uint64_t>> seen;  ///< effective masked keys
      std::int32_t prio = 100;
      for (std::size_t e = 0; e < n; ++e) {
        InitialEntry ent;
        ent.table = t.name;
        if (t.has_drop && chance(0.25)) {
          ent.action = "_drop";  // exercises the drop verdict path
        } else {
          const auto& a = t.actions[u(t.actions.size())];
          ent.action = a.name;
          for (std::size_t p = 0; p < a.params; ++p) ent.args.push_back(u(64));
        }
        std::vector<std::uint64_t> effective;
        bool any_nonexact = false;
        for (const auto& r : t.reads) {
          const std::uint64_t v = u(opts.match_domain);
          // Exact reads use the full 64-bit mask, matching what the creact
          // runtime's addEntry builds — so hasEntry-guarded reaction adds
          // dedup against initial entries instead of colliding.
          std::uint64_t mask = ~std::uint64_t{0};
          if (r.kind == "ternary") {
            any_nonexact = true;
            // Mask keeps the low domain bits so entries still hit.
            mask = (opts.match_domain - 1) |
                   (u(2) ? 0 : 0xff00ull & mask_for_width(r.width));
          } else if (r.kind == "lpm") {
            any_nonexact = true;
            const unsigned plen = 8 + static_cast<unsigned>(u(9));
            mask = mask_for_width(r.width) &
                   ~mask_for_width(r.width - std::min(plen, r.width));
          }
          const std::uint64_t pre = r.has_premask ? r.premask
                                                  : ~std::uint64_t{0};
          ent.key.push_back(v & mask);
          ent.masks.push_back(mask);
          effective.push_back(v & mask & pre);
          effective.push_back(mask & pre);
        }
        if (!seen.insert(effective).second) continue;  // avoid ambiguity
        // Distinct priorities sidestep insertion-order tie-breaks between
        // overlapping ternary entries (they are legal but make the oracle
        // depend on mirror-order internals).
        ent.priority = any_nonexact ? prio-- : 0;
        out.entries.push_back(std::move(ent));
      }
    }
  }

  void gen_trace() {
    out.epochs = static_cast<std::uint32_t>(
        opts.min_epochs + u(opts.max_epochs - opts.min_epochs + 1));
    for (std::uint32_t ep = 0; ep < out.epochs; ++ep) {
      const std::size_t n = 1 + u(opts.max_packets_per_epoch);
      for (std::size_t j = 0; j < n; ++j) {
        PacketSpec p;
        p.epoch = ep;
        p.port = static_cast<int>(u(4));
        p.length = 64 + static_cast<std::uint32_t>(u(4)) * 64;
        for (const auto& f : fields) {
          // Match-relevant trio in the small domain; the rest wider.
          const bool match_field = f.name <= "hdr.f2";
          const std::uint64_t v =
              match_field ? u(opts.match_domain)
                          : u(1ull << std::min(f.width, 16u));
          p.fields.emplace_back(f.name, v);
        }
        out.packets.push_back(std::move(p));
      }
    }
  }
};

}  // namespace

std::uint64_t iteration_seed(std::uint64_t base, std::uint64_t iteration) {
  // splitmix64 over (base + iteration): decorrelates adjacent iterations.
  std::uint64_t z = base + 0x9e3779b97f4a7c15ULL * (iteration + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Scenario generate_scenario(std::uint64_t seed, const GenOptions& opts) {
  Gen g(seed, opts);
  g.out.seed = seed;
  g.gen_fields();
  g.gen_malleables();
  g.gen_state();
  g.gen_actions();
  g.gen_tables();
  g.gen_control();
  g.gen_reaction_sig();
  g.gen_reaction_body();
  g.gen_entries();
  g.gen_trace();
  return g.out;
}

}  // namespace mantis::check
