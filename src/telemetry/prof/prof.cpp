#include "telemetry/prof/prof.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <sstream>

#include "telemetry/metrics.hpp"  // json_escape
#include "util/check.hpp"

namespace mantis::telemetry::prof {

namespace detail {
constinit thread_local Frame* tls_frame_top = nullptr;
}  // namespace detail

const char* kind_name(EventKind k) {
  switch (k) {
    case EventKind::kOther: return "other";
    case EventKind::kPacketTransit: return "packet_transit";
    case EventKind::kPipelineExecute: return "pipeline_execute";
    case EventKind::kTmDequeue: return "tm_dequeue";
    case EventKind::kControlDriver: return "control_driver";
    case EventKind::kAgentPoll: return "agent_poll";
    case EventKind::kFaultTransition: return "fault_transition";
    case EventKind::kInt: return "int";
  }
  return "other";
}

// ---------------------------------------------------------------------------
// Site registry. Global (sites are call-site statics shared by every
// Profiler instance); lookups during registration are mutex-guarded, reads
// on the report path go through the same lock, and hot-path code only ever
// carries the SiteId, never touches the registry.

namespace {

struct SiteRegistry {
  std::mutex mu;
  const char* names[kMaxSites] = {};
  EventKind kinds[kMaxSites] = {};
  std::size_t count = 1;  // id 0 reserved

  static SiteRegistry& instance() {
    static SiteRegistry reg;
    return reg;
  }
};

}  // namespace

SiteId register_site(const char* name, EventKind kind) {
  auto& reg = SiteRegistry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  // Re-registration (same name, e.g. a template or macro in a header) reuses
  // the existing id so folded stacks stay stable.
  for (std::size_t i = 1; i < reg.count; ++i) {
    if (std::strcmp(reg.names[i], name) == 0 && reg.kinds[i] == kind) {
      return static_cast<SiteId>(i);
    }
  }
  if (reg.count >= kMaxSites) return 0;
  const std::size_t id = reg.count++;
  reg.names[id] = name;
  reg.kinds[id] = kind;
  return static_cast<SiteId>(id);
}

const char* site_name(SiteId id) {
  auto& reg = SiteRegistry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  if (id == 0 || id >= reg.count) return "?";
  return reg.names[id];
}

EventKind site_kind(SiteId id) {
  auto& reg = SiteRegistry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  if (id == 0 || id >= reg.count) return EventKind::kOther;
  return reg.kinds[id];
}

std::size_t num_sites() {
  auto& reg = SiteRegistry::instance();
  const std::lock_guard<std::mutex> lock(reg.mu);
  return reg.count;
}

SiteId EventScope::dispatch_site() {
  // The root frame of every event callback: whatever a callback does
  // outside a named MANTIS_PROF_SCOPE lands here, so the attribution always
  // sums to total dispatch time instead of silently losing the remainder.
  static const SiteId id = register_site("event.dispatch", EventKind::kOther);
  return id;
}

// ---------------------------------------------------------------------------

std::int64_t Profiler::wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Profiler::Profiler()
    : site_cells_(new SiteCell[kMaxSites]),
      folded_(new FoldedSlot[kFoldedSlots]) {
  samples_.reserve(64);
}

Profiler::~Profiler() = default;

void Profiler::reset() {
  for (std::size_t i = 0; i < kMaxSites; ++i) {
    site_cells_[i].count.store(0, std::memory_order_relaxed);
    site_cells_[i].self_ns.store(0, std::memory_order_relaxed);
    site_cells_[i].allocs.store(0, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kFoldedSlots; ++i) {
    folded_[i].path.store(0, std::memory_order_relaxed);
    folded_[i].self_ns.store(0, std::memory_order_relaxed);
    folded_[i].count.store(0, std::memory_order_relaxed);
  }
  folded_overflow_ns_.store(0, std::memory_order_relaxed);
  for (auto& cell : shard_cells_) {
    cell->events.store(0, std::memory_order_relaxed);
    cell->wall_ns.store(0, std::memory_order_relaxed);
    cell->allocs.store(0, std::memory_order_relaxed);
  }
  main_cell_.events.store(0, std::memory_order_relaxed);
  main_cell_.wall_ns.store(0, std::memory_order_relaxed);
  main_cell_.allocs.store(0, std::memory_order_relaxed);
  heap_pushes_.store(0, std::memory_order_relaxed);
  heap_pops_.store(0, std::memory_order_relaxed);
  heap_peak_depth_.store(0, std::memory_order_relaxed);
  local_pushes_.store(0, std::memory_order_relaxed);
  outbox_pushes_.store(0, std::memory_order_relaxed);
  rounds_.store(0, std::memory_order_relaxed);
  barrier_stall_ns_.store(0, std::memory_order_relaxed);
  idle_shard_rounds_.store(0, std::memory_order_relaxed);
  sum_round_max_events_.store(0, std::memory_order_relaxed);
  sum_round_events_.store(0, std::memory_order_relaxed);
  samples_.clear();
}

void Profiler::attribute(SiteId site, std::uint32_t path,
                         std::uint64_t self_ns, std::uint64_t self_allocs) {
  SiteCell& cell = site_cells_[site];
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
  cell.allocs.fetch_add(self_allocs, std::memory_order_relaxed);

  if (path == 0) return;
  // Open addressing, linear probe. Slots claim their path by CAS; a full
  // table routes the remainder into the overflow bucket instead of looping.
  std::size_t idx = (path * 2654435761u) & (kFoldedSlots - 1);
  for (std::size_t probe = 0; probe < kFoldedSlots; ++probe) {
    FoldedSlot& slot = folded_[idx];
    std::uint32_t cur = slot.path.load(std::memory_order_acquire);
    if (cur == 0) {
      if (!slot.path.compare_exchange_strong(cur, path,
                                             std::memory_order_acq_rel)) {
        if (cur != path) {
          idx = (idx + 1) & (kFoldedSlots - 1);
          continue;
        }
      }
      cur = path;
    }
    if (cur == path) {
      slot.self_ns.fetch_add(self_ns, std::memory_order_relaxed);
      slot.count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    idx = (idx + 1) & (kFoldedSlots - 1);
  }
  folded_overflow_ns_.fetch_add(self_ns, std::memory_order_relaxed);
}

void Profiler::count_event(int shard, std::uint64_t incl_ns,
                           std::uint64_t incl_allocs) {
  ShardCell& cell =
      (shard >= 0 && static_cast<std::size_t>(shard) < shard_cells_.size())
          ? *shard_cells_[static_cast<std::size_t>(shard)]
          : main_cell_;
  cell.events.fetch_add(1, std::memory_order_relaxed);
  cell.wall_ns.fetch_add(incl_ns, std::memory_order_relaxed);
  cell.allocs.fetch_add(incl_allocs, std::memory_order_relaxed);
}

void Profiler::count_heap_push(std::size_t depth_after) {
  heap_pushes_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t depth = static_cast<std::uint64_t>(depth_after);
  std::uint64_t peak = heap_peak_depth_.load(std::memory_order_relaxed);
  while (depth > peak && !heap_peak_depth_.compare_exchange_weak(
                             peak, depth, std::memory_order_relaxed)) {
  }
}

void Profiler::ensure_shards(std::size_t count) {
  // Grown only from the main thread before any round is in flight: the
  // vector never reallocates under workers (they index, never push).
  while (shard_cells_.size() < count) {
    shard_cells_.push_back(std::make_unique<ShardCell>());
  }
}

void Profiler::note_round(std::uint64_t max_events, std::uint64_t total_events,
                          std::size_t idle_shards, std::uint64_t stall_ns) {
  rounds_.fetch_add(1, std::memory_order_relaxed);
  barrier_stall_ns_.fetch_add(stall_ns, std::memory_order_relaxed);
  idle_shard_rounds_.fetch_add(idle_shards, std::memory_order_relaxed);
  sum_round_max_events_.fetch_add(max_events, std::memory_order_relaxed);
  sum_round_events_.fetch_add(total_events, std::memory_order_relaxed);
}

void Profiler::sample(Time vt) {
  if (samples_.size() >= kMaxSamples) return;
  ProfileReport::Sample s;
  s.vt = vt;
  std::uint64_t events = main_cell_.events.load(std::memory_order_relaxed);
  for (const auto& cell : shard_cells_) {
    events += cell->events.load(std::memory_order_relaxed);
  }
  s.events = events;
  for (std::size_t i = 1; i < kMaxSites && i < num_sites(); ++i) {
    const auto kind = static_cast<std::size_t>(site_kind(static_cast<SiteId>(i)));
    s.kind_self_ns[kind] +=
        site_cells_[i].self_ns.load(std::memory_order_relaxed);
  }
  samples_.push_back(s);
}

double ProfileReport::RoundStats::imbalance() const {
  if (rounds == 0 || shard_count == 0 || sum_round_events == 0) return 1.0;
  const double avg_max = static_cast<double>(sum_round_max_events) /
                         static_cast<double>(rounds);
  const double avg_mean = static_cast<double>(sum_round_events) /
                          static_cast<double>(rounds) /
                          static_cast<double>(shard_count);
  return avg_mean <= 0 ? 1.0 : avg_max / avg_mean;
}

ProfileReport Profiler::report() const {
  ProfileReport rep;
  rep.compiled = MANTIS_TELEMETRY_ENABLED != 0;
  rep.enabled = enabled();
  rep.lifetime_allocs = total_allocs();
  rep.lifetime_frees = total_frees();

  const std::size_t sites = std::min<std::size_t>(num_sites(), kMaxSites);
  for (std::size_t i = 1; i < sites; ++i) {
    const auto id = static_cast<SiteId>(i);
    ProfileReport::SiteStats s;
    s.name = site_name(id);
    s.kind = site_kind(id);
    s.count = site_cells_[i].count.load(std::memory_order_relaxed);
    s.self_ns = site_cells_[i].self_ns.load(std::memory_order_relaxed);
    s.allocs = site_cells_[i].allocs.load(std::memory_order_relaxed);
    if (s.count == 0) continue;
    auto& k = rep.kinds[static_cast<std::size_t>(s.kind)];
    k.count += s.count;
    k.self_ns += s.self_ns;
    k.allocs += s.allocs;
    rep.sites.push_back(std::move(s));
  }

  rep.events = main_cell_.events.load(std::memory_order_relaxed);
  rep.wall_ns = main_cell_.wall_ns.load(std::memory_order_relaxed);
  rep.event_allocs = main_cell_.allocs.load(std::memory_order_relaxed);
  for (const auto& cell : shard_cells_) {
    ProfileReport::ShardStats s;
    s.events = cell->events.load(std::memory_order_relaxed);
    s.wall_ns = cell->wall_ns.load(std::memory_order_relaxed);
    s.allocs = cell->allocs.load(std::memory_order_relaxed);
    rep.events += s.events;
    rep.wall_ns += s.wall_ns;
    rep.event_allocs += s.allocs;
    rep.shards.push_back(s);
  }

  rep.heap.pushes = heap_pushes_.load(std::memory_order_relaxed);
  rep.heap.pops = heap_pops_.load(std::memory_order_relaxed);
  rep.heap.peak_depth = heap_peak_depth_.load(std::memory_order_relaxed);
  rep.heap.local_pushes = local_pushes_.load(std::memory_order_relaxed);
  rep.heap.outbox_pushes = outbox_pushes_.load(std::memory_order_relaxed);

  rep.rounds.rounds = rounds_.load(std::memory_order_relaxed);
  rep.rounds.barrier_stall_ns =
      barrier_stall_ns_.load(std::memory_order_relaxed);
  rep.rounds.idle_shard_rounds =
      idle_shard_rounds_.load(std::memory_order_relaxed);
  rep.rounds.sum_round_max_events =
      sum_round_max_events_.load(std::memory_order_relaxed);
  rep.rounds.sum_round_events =
      sum_round_events_.load(std::memory_order_relaxed);
  rep.rounds.shard_count = shard_cells_.size();

  // Folded stacks: decode packed paths (highest occupied byte = outermost
  // frame), sort by self time descending then name for determinism.
  for (std::size_t i = 0; i < kFoldedSlots; ++i) {
    const std::uint32_t path = folded_[i].path.load(std::memory_order_relaxed);
    if (path == 0) continue;
    const std::uint64_t ns = folded_[i].self_ns.load(std::memory_order_relaxed);
    std::string stack;
    bool started = false;
    for (int shift = 24; shift >= 0; shift -= 8) {
      const auto id = static_cast<SiteId>((path >> shift) & 0xFFu);
      if (id == 0 && !started) continue;
      started = true;
      if (!stack.empty()) stack += ';';
      stack += site_name(id);
    }
    rep.folded.emplace_back(std::move(stack), ns);
  }
  const std::uint64_t overflow =
      folded_overflow_ns_.load(std::memory_order_relaxed);
  if (overflow > 0) rep.folded.emplace_back("prof.overflow", overflow);
  std::sort(rep.folded.begin(), rep.folded.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });

  rep.samples = samples_;
  return rep;
}

// ---------------------------------------------------------------------------
// Rendering.

namespace {

std::string fmt_ratio(double v) {
  if (std::isnan(v) || std::isinf(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

std::string ProfileReport::to_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"mantis-prof/1\",\n";
  out << "  \"compiled\": " << (compiled ? "true" : "false") << ",\n";
  out << "  \"enabled\": " << (enabled ? "true" : "false") << ",\n";
  out << "  \"events\": " << events << ",\n";
  out << "  \"wall_ns\": " << wall_ns << ",\n";
  out << "  \"event_allocs\": " << event_allocs << ",\n";
  out << "  \"allocs_per_event\": " << fmt_ratio(allocs_per_event()) << ",\n";
  out << "  \"lifetime_allocs\": " << lifetime_allocs << ",\n";
  out << "  \"lifetime_frees\": " << lifetime_frees << ",\n";

  out << "  \"kinds\": {";
  bool first = true;
  for (std::size_t i = 0; i < kNumKinds; ++i) {
    const KindStats& k = kinds[i];
    if (k.count == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << kind_name(static_cast<EventKind>(i))
        << "\": {\"count\": " << k.count << ", \"self_ns\": " << k.self_ns
        << ", \"allocs\": " << k.allocs << "}";
  }
  out << (first ? "" : "\n  ") << "},\n";

  out << "  \"sites\": [";
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const SiteStats& s = sites[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"name\": \"" << json_escape(s.name) << "\", \"kind\": \""
        << kind_name(s.kind) << "\", \"count\": " << s.count
        << ", \"self_ns\": " << s.self_ns << ", \"allocs\": " << s.allocs
        << "}";
  }
  out << (sites.empty() ? "" : "\n  ") << "],\n";

  out << "  \"heap\": {\"pushes\": " << heap.pushes
      << ", \"pops\": " << heap.pops << ", \"peak_depth\": " << heap.peak_depth
      << ", \"local_pushes\": " << heap.local_pushes
      << ", \"outbox_pushes\": " << heap.outbox_pushes << "},\n";

  out << "  \"shards\": {\"count\": " << rounds.shard_count
      << ", \"rounds\": " << rounds.rounds
      << ", \"barrier_stall_ns\": " << rounds.barrier_stall_ns
      << ", \"idle_shard_rounds\": " << rounds.idle_shard_rounds
      << ", \"imbalance\": " << fmt_ratio(rounds.imbalance())
      << ", \"per_shard\": [";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const ShardStats& s = shards[i];
    out << (i == 0 ? "" : ", ");
    out << "{\"events\": " << s.events << ", \"wall_ns\": " << s.wall_ns
        << ", \"allocs\": " << s.allocs << "}";
  }
  out << "]},\n";

  out << "  \"samples\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"vt\": " << s.vt << ", \"events\": " << s.events
        << ", \"kind_self_ns\": {";
    bool f2 = true;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
      if (s.kind_self_ns[k] == 0) continue;
      if (!f2) out << ", ";
      f2 = false;
      out << "\"" << kind_name(static_cast<EventKind>(k))
          << "\": " << s.kind_self_ns[k];
    }
    out << "}}";
  }
  out << (samples.empty() ? "" : "\n  ") << "]\n";
  out << "}\n";
  return out.str();
}

std::string ProfileReport::to_folded() const {
  std::ostringstream out;
  for (const auto& [stack, ns] : folded) {
    if (ns == 0) continue;
    out << stack << " " << ns << "\n";
  }
  return out.str();
}

}  // namespace mantis::telemetry::prof
