#include "telemetry/inspect.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "int/collector.hpp"
#include "telemetry/chrome_trace.hpp"
#include "util/check.hpp"

namespace mantis::telemetry {

namespace {

void render_event_line(std::ostringstream& out, const FlightEvent& ev) {
  out << "  #" << ev.seq << " t=" << ev.t << "ns " << flight_kind_name(ev.kind);
  if (ev.reaction_id != 0) out << " reaction=" << ev.reaction_id;
  out << " " << ev.name;
  if (ev.value != 0) out << " value=" << ev.value;
  if (!ev.detail.empty()) out << " (" << ev.detail << ")";
  out << "\n";
}

void render_header(std::ostringstream& out, const MfrDump& dump) {
  out << "mfr dump: reason=\"" << dump.reason << "\" vt=" << dump.vt
      << "ns events=" << dump.events.size() << " (recorded=" << dump.recorded
      << " dropped=" << dump.dropped << ") snapshots=" << dump.snapshots.size()
      << "\n";
}

}  // namespace

std::string mfr_show_text(const MfrDump& dump) {
  std::ostringstream out;
  render_header(out, dump);
  out << "events:\n";
  for (const auto& ev : dump.events) render_event_line(out, ev);
  for (const auto& snap : dump.snapshots) {
    out << "snapshot " << snap.label << ":\n";
    for (const auto& line : snap.lines) out << "  " << line << "\n";
  }
  return out.str();
}

std::string mfr_diff_text(const MfrDump& dump, Time t1, Time t2) {
  if (t2 < t1) std::swap(t1, t2);
  std::ostringstream out;
  render_header(out, dump);
  out << "window [" << t1 << "ns, " << t2 << "ns]:\n";
  std::set<std::uint64_t> ended, affected;
  std::size_t in_window = 0;
  for (const auto& ev : dump.events) {
    if (ev.t < t1 || ev.t > t2) continue;
    ++in_window;
    render_event_line(out, ev);
    if (ev.reaction_id != 0) {
      affected.insert(ev.reaction_id);
      if (ev.kind == FlightEvent::Kind::kReaction && ev.name == "iteration") {
        ended.insert(ev.reaction_id);
      }
    }
  }
  out << in_window << " events in window";
  if (!affected.empty()) {
    out << "; reactions touched:";
    for (auto rid : affected) {
      out << " " << rid << (ended.count(rid) != 0 ? "(ended)" : "");
    }
  }
  out << "\n";
  return out.str();
}

std::string mfr_reaction_text(const MfrDump& dump, std::uint64_t reaction_id) {
  std::ostringstream out;
  render_header(out, dump);
  out << "reaction " << reaction_id << ":\n";
  std::size_t n = 0;
  for (const auto& ev : dump.events) {
    if (ev.reaction_id != reaction_id) continue;
    ++n;
    render_event_line(out, ev);
  }
  if (n == 0) out << "  (no events for this reaction id)\n";
  return out.str();
}

std::string mfr_chrome_json(const MfrDump& dump) {
  ChromeTraceWriter out;
  // One lane per event kind.
  const FlightEvent::Kind kinds[] = {
      FlightEvent::Kind::kReaction,  FlightEvent::Kind::kMalleable,
      FlightEvent::Kind::kDriverOp,  FlightEvent::Kind::kFault,
      FlightEvent::Kind::kAnomaly,   FlightEvent::Kind::kIntReport};
  for (const auto kind : kinds) {
    out.lane(static_cast<std::uint8_t>(kind), flight_kind_name(kind));
  }

  // Track flow endpoints so each reaction renders as one arc: flow start at
  // its first event, flow end at its last (single-event reactions get none).
  std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> flow_span;
  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    const auto rid = dump.events[i].reaction_id;
    if (rid == 0) continue;
    auto [it, fresh] = flow_span.emplace(rid, std::make_pair(i, i));
    if (!fresh) it->second.second = i;
  }

  for (std::size_t i = 0; i < dump.events.size(); ++i) {
    const auto& ev = dump.events[i];
    const unsigned tid = static_cast<std::uint8_t>(ev.kind);
    JsonWriter& w = out.begin_event(ev.name, "mfr", "i");
    w.field("s", "t").field("pid", 0).field("tid", tid);
    out.time("ts", ev.t);
    w.key("args").begin_object(JsonWriter::Layout::kInline);
    w.field("seq", ev.seq).field("reaction_id", ev.reaction_id);
    w.field("value", ev.value).field("detail", ev.detail);
    w.end_object();
    out.end_event();
    if (ev.reaction_id != 0) {
      const auto span = flow_span.at(ev.reaction_id);
      if (span.first != span.second) {
        const char* ph =
            i == span.first ? "s" : (i == span.second ? "f" : "t");
        out.begin_event("reaction", "mfr", ph);
        w.field("pid", 0).field("tid", tid);
        out.time("ts", ev.t);
        w.field("id", ev.reaction_id);
        if (*ph == 'f') w.field("bp", "e");
        out.end_event();
      }
    }
  }
  return out.take();
}

std::string mfr_int_text(const MfrDump& dump) {
  using mantis::int_tel::IntReport;
  std::ostringstream os;
  std::size_t shown = 0;
  for (const auto& ev : dump.events) {
    if (ev.kind != FlightEvent::Kind::kIntReport) continue;
    ++shown;
    IntReport rep;
    if (!IntReport::parse(ev.detail, rep)) {
      os << "t=" << ev.t << " <unparseable int_report: " << ev.detail << ">\n";
      continue;
    }
    os << "t=" << ev.t << " sink=n" << rep.sink << " seq=" << rep.seq
       << " proto=" << static_cast<unsigned>(rep.proto) << " flow "
       << rep.flow_src << "->" << rep.flow_dst
       << (rep.truncated ? " TRUNCATED" : "") << "\n";
    for (const auto& hop : rep.hops) {
      os << "    n" << hop.switch_id;
      if (hop.ingress_port == mantis::int_tel::kSyntheticIngress) {
        os << " in=probe";
      } else {
        os << " in=" << hop.ingress_port;
      }
      os << " out=" << hop.egress_port << " latency=" << hop.hop_latency_ns
         << "ns queue=" << hop.queue_bytes << "B\n";
    }
  }
  os << shown << " INT report(s) in dump (recorder samples 1 in N; see "
        "net.int.sink_reports for the full count)\n";
  return os.str();
}

std::string mfr_channel_text(const MfrDump& dump) {
  std::ostringstream os;
  std::size_t shown = 0;
  for (const auto& snap : dump.snapshots) {
    if (snap.label.find("driver.channel") == std::string::npos) continue;
    for (const auto& line : snap.lines) {
      // key=value tokens, whitespace-separated.
      std::uint64_t ops = 0, busy_ns = 0, depth = 0, per_mille = 0;
      std::int64_t free_at = 0;
      std::istringstream is(line);
      std::string tok;
      while (is >> tok) {
        const auto eq = tok.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = tok.substr(0, eq);
        const char* val = tok.c_str() + eq + 1;
        if (key == "ops") ops = std::strtoull(val, nullptr, 0);
        if (key == "busy_ns") busy_ns = std::strtoull(val, nullptr, 0);
        if (key == "depth") depth = std::strtoull(val, nullptr, 0);
        if (key == "free_at") free_at = std::strtoll(val, nullptr, 0);
        if (key == "utilization_permille") {
          per_mille = std::strtoull(val, nullptr, 0);
        }
      }
      ++shown;
      os << snap.label << ": ops=" << ops << " busy=" << busy_ns / 1000 << "."
         << busy_ns % 1000 / 100 << "us in_flight=" << depth
         << " free_at=" << free_at << "ns utilization=" << per_mille / 10 << "."
         << per_mille % 10 << "%\n";
    }
  }
  if (shown == 0) {
    os << "no driver.channel snapshot in dump (pre-channel-gauge .mfr?)\n";
  } else {
    os << shown << " channel(s); utilization is busy time / virtual time at "
          "dump. Batched transfers land as one occupancy each; see "
          "driver.channel.depth_at_submit for the pipelining histogram.\n";
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// prof: render a mantis-prof/1 JSON report

namespace {

std::string fmt_ms(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e6);
  return buf;
}

std::string fmt_pct(double num, double denom) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", denom > 0 ? num * 100.0 / denom : 0.0);
  return buf;
}

/// Field `name` of `obj` as a count. A count the report cannot hold (not
/// finite, negative, or 2^64 and above) is a UserError naming the field.
std::uint64_t count(const JsonValue& obj, const char* name) {
  const double v = obj.num_or(name);
  if (!(v >= 0 && v < 18446744073709551616.0)) {
    throw UserError(std::string("prof: \"") + name + "\" is not a count");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::string prof_report_text(const std::string& json) {
  const JsonValue root = parse_json(json);
  // Accept both a bare ProfileReport and a bench report embedding one.
  const JsonValue* prof = &root;
  if (root.str_or("schema").rfind("mantis-prof/", 0) != 0) {
    prof = root.find("prof");
    if (prof == nullptr) {
      throw UserError("prof: no \"prof\" section and not a mantis-prof report");
    }
  }
  if (prof->str_or("schema") != "mantis-prof/1") {
    throw UserError("prof: unsupported schema \"" + prof->str_or("schema") +
                    "\"");
  }

  std::ostringstream os;
  const double events = prof->num_or("events");
  const double wall_ns = prof->num_or("wall_ns");
  os << "hot-path profile (mantis-prof/1): compiled="
     << (prof->find("compiled") != nullptr && prof->find("compiled")->boolean
             ? "yes"
             : "no")
     << " enabled="
     << (prof->find("enabled") != nullptr && prof->find("enabled")->boolean
             ? "yes"
             : "no")
     << "\n";
  os << "events=" << count(*prof, "events")
     << " attributed_wall=" << fmt_ms(wall_ns) << "ms";
  if (wall_ns > 0) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", events * 1e9 / wall_ns / 1e6);
    os << " (" << buf << " Mev/s through instrumented scopes)";
  }
  os << "\n";
  os << "allocs: " << count(*prof, "event_allocs")
     << " inside events (" << prof->num_or("allocs_per_event")
     << " per event), lifetime new/delete "
     << count(*prof, "lifetime_allocs") << "/"
     << count(*prof, "lifetime_frees") << "\n";

  const JsonValue* kinds = prof->find("kinds");
  if (kinds != nullptr && !kinds->members.empty()) {
    os << "\nper-kind self time:\n";
    // Sort by self_ns descending for the "what dominates" read.
    auto sorted = kinds->members;
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.num_or("self_ns") > b.second.num_or("self_ns");
    });
    for (const auto& [name, k] : sorted) {
      const double self = k.num_or("self_ns");
      char line[160];
      std::snprintf(line, sizeof(line),
                    "  %-18s %10sms %s  count=%llu allocs=%llu\n", name.c_str(),
                    fmt_ms(self).c_str(), fmt_pct(self, wall_ns).c_str(),
                    static_cast<unsigned long long>(count(k, "count")),
                    static_cast<unsigned long long>(count(k, "allocs")));
      os << line;
    }
  }

  const JsonValue* sites = prof->find("sites");
  if (sites != nullptr && !sites->items.empty()) {
    os << "\ntop sites (self time):\n";
    auto sorted = sites->items;
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.num_or("self_ns") > b.num_or("self_ns");
    });
    std::size_t shown = 0;
    for (const auto& s : sorted) {
      if (shown++ >= 12) break;
      char line[200];
      std::snprintf(line, sizeof(line),
                    "  %-24s %10sms %s  count=%llu  [%s]\n",
                    s.str_or("name").c_str(), fmt_ms(s.num_or("self_ns")).c_str(),
                    fmt_pct(s.num_or("self_ns"), wall_ns).c_str(),
                    static_cast<unsigned long long>(count(s, "count")),
                    s.str_or("kind").c_str());
      os << line;
    }
    if (sorted.size() > shown) {
      os << "  ... " << sorted.size() - shown << " more site(s)\n";
    }
  }

  const JsonValue* heap = prof->find("heap");
  if (heap != nullptr) {
    os << "\nheap: pushes="
       << count(*heap, "pushes")
       << " pops=" << count(*heap, "pops")
       << " peak_depth="
       << count(*heap, "peak_depth")
       << " frame_local="
       << count(*heap, "local_pushes")
       << " outbox="
       << count(*heap, "outbox_pushes") << "\n";
  }

  const JsonValue* shards = prof->find("shards");
  if (shards != nullptr && shards->num_or("count") > 0) {
    os << "\nshards: count="
       << count(*shards, "count")
       << " rounds=" << count(*shards, "rounds")
       << " barrier_stall=" << fmt_ms(shards->num_or("barrier_stall_ns"))
       << "ms idle_shard_rounds="
       << count(*shards, "idle_shard_rounds")
       << " imbalance=" << shards->num_or("imbalance") << "\n";
    const JsonValue* per = shards->find("per_shard");
    if (per != nullptr) {
      std::uint64_t max_events = 0;
      for (const auto& s : per->items) {
        max_events = std::max(max_events, count(s, "events"));
      }
      for (std::size_t i = 0; i < per->items.size(); ++i) {
        const auto& s = per->items[i];
        const std::uint64_t ev = count(s, "events");
        const int bar = max_events > 0
                            ? static_cast<int>(static_cast<double>(ev) * 32 /
                                               static_cast<double>(max_events))
                            : 0;
        char line[200];
        std::snprintf(line, sizeof(line),
                      "  shard %-3zu %10llu ev %10sms  %s\n", i,
                      static_cast<unsigned long long>(ev),
                      fmt_ms(s.num_or("wall_ns")).c_str(),
                      std::string(static_cast<std::size_t>(bar), '#').c_str());
        os << line;
      }
    }
  } else {
    os << "\nshards: none (sequential run)\n";
  }

  const JsonValue* samples = prof->find("samples");
  if (samples != nullptr) {
    os << "\nsamples: " << samples->items.size()
       << " (counter tracks in the Chrome trace export)\n";
  }
  return os.str();
}

}  // namespace mantis::telemetry
