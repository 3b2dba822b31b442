// Low-overhead virtual-time event tracer.
//
// Spans and instants land in a fixed-capacity ring buffer, each keyed to the
// simulation's virtual clock (sim::Time) plus the wall-clock instant it was
// recorded, so a trace shows both where virtual time went and how long the
// host took to simulate it. Recording is gated on a runtime flag that
// defaults to OFF — a disabled tracer costs one branch per site — and the
// MANTIS_SPAN/MANTIS_INSTANT macros compile to nothing entirely when the
// build sets MANTIS_TELEMETRY_ENABLED=0 (CMake option MANTIS_TELEMETRY=OFF).
//
// Export with telemetry/chrome_trace.hpp; open in chrome://tracing or
// Perfetto. Span taxonomy lives in docs/TELEMETRY.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/time.hpp"

#ifndef MANTIS_TELEMETRY_ENABLED
#define MANTIS_TELEMETRY_ENABLED 1
#endif

namespace mantis::telemetry {

/// Chrome-trace "thread" lanes: one per actor so spans stack sensibly.
enum class Track : std::uint8_t {
  kAgent = 0,          ///< dialogue phases
  kDriverChannel = 1,  ///< serialized PCIe channel occupancy
  kSwitch = 2,         ///< packet pipeline passes
  kTrafficManager = 3, ///< queueing / service
  kLegacy = 4,         ///< legacy control-plane clients
  kHost = 5,           ///< host-side work (compiler, tooling)
};
constexpr std::size_t kNumTracks = 6;
const char* track_name(Track t);

struct TraceEvent {
  /// kFlow* are Chrome flow events (ph "s"/"t"/"f"): same-id events render
  /// as one connected arc across tracks, binding to the enclosing slice at
  /// their timestamp. The provenance layer uses them to draw one reaction as
  /// agent span -> driver op spans -> sim commit -> first-effect packet.
  enum class Phase : std::uint8_t {
    kComplete,
    kInstant,
    kFlowStart,
    kFlowStep,
    kFlowEnd,
  };

  const char* name = "";      ///< static/interned strings only (no copy)
  const char* category = "";
  Phase phase = Phase::kComplete;
  Track track = Track::kAgent;
  Time vt_begin = 0;          ///< virtual ns
  Duration vt_dur = 0;        ///< virtual ns (0 for instants)
  std::int64_t wall_ns = 0;   ///< host wall clock at record time
  const char* arg_name = nullptr;  ///< optional single numeric argument
  std::int64_t arg = 0;
  std::uint64_t flow_id = 0;  ///< correlation id (kFlow* phases only)

  bool is_flow() const {
    return phase == Phase::kFlowStart || phase == Phase::kFlowStep ||
           phase == Phase::kFlowEnd;
  }
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  bool enabled() const { return enabled_; }
  /// Enabling allocates the ring on first use; disabling keeps the contents.
  void set_enabled(bool on);
  /// Drops recorded events; next enable starts fresh.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  /// Virtual clock source; the owning event loop installs itself here.
  /// Unset, the tracer falls back to wall time since construction, which
  /// keeps standalone (no-simulation) tools like mantisc traceable.
  void set_clock(std::function<Time()> now);
  Time now() const;

  // ---- recording (no-ops when disabled) ----
  void complete(const char* name, const char* category, Track track,
                Time vt_begin, Time vt_end, const char* arg_name = nullptr,
                std::int64_t arg = 0);
  void instant(const char* name, const char* category, Track track, Time at,
               const char* arg_name = nullptr, std::int64_t arg = 0);
  /// Records one flow event (`phase` must be a kFlow* phase). All events of
  /// one flow share `flow_id` and, per the Chrome trace format, should share
  /// `name` and `category` too.
  void flow(TraceEvent::Phase phase, const char* name, const char* category,
            Track track, Time at, std::uint64_t flow_id);

  // ---- inspection ----
  /// Events currently retained (<= capacity).
  std::size_t size() const;
  /// Total ever recorded; recorded() - size() have been overwritten.
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - size(); }

  /// Retained events, oldest first (ring order resolved).
  std::vector<TraceEvent> events() const;
  void clear();

 private:
  bool enabled_ = false;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::uint64_t recorded_ = 0;
  std::function<Time()> clock_;
  std::int64_t wall_epoch_ns_;

  /// Defers through the thread's ShardLane when one is installed (parallel
  /// fabric rounds) so ring insertion order stays canonical.
  void push(TraceEvent ev);
  void push_direct(TraceEvent ev);
  std::int64_t wall_now_ns() const;
};

/// RAII span: captures virtual begin-time at construction, records one
/// complete event at destruction. Cheap when the tracer is disabled (one
/// branch, no clock read).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* category,
             Track track, const char* arg_name = nullptr, std::int64_t arg = 0)
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(name),
        category_(category),
        arg_name_(arg_name),
        arg_(arg),
        track_(track) {
    if (tracer_ != nullptr) begin_ = tracer_->now();
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->complete(name_, category_, track_, begin_, tracer_->now(),
                        arg_name_, arg_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  const char* category_;
  const char* arg_name_;
  std::int64_t arg_;
  Track track_;
  Time begin_ = 0;
};

}  // namespace mantis::telemetry

// Instrumentation-site macros: compile to nothing when the build disables
// telemetry, so hot paths carry zero residue.
#if MANTIS_TELEMETRY_ENABLED
#define MANTIS_TELEMETRY_CAT2(a, b) a##b
#define MANTIS_TELEMETRY_CAT(a, b) MANTIS_TELEMETRY_CAT2(a, b)
#define MANTIS_SPAN(tracer, name, category, track, ...)                   \
  ::mantis::telemetry::ScopedSpan MANTIS_TELEMETRY_CAT(mantis_span_,      \
                                                       __LINE__)(         \
      (tracer), (name), (category), (track), ##__VA_ARGS__)
#define MANTIS_INSTANT(tracer, name, category, track, at, ...) \
  (tracer).instant((name), (category), (track), (at), ##__VA_ARGS__)
// For spans whose duration is modeled (schedule_in delays) rather than
// elapsed across the call site — records explicit [vt_begin, vt_end).
#define MANTIS_SPAN_RECORD(tracer, name, category, track, vt_begin, vt_end, \
                           ...)                                             \
  (tracer).complete((name), (category), (track), (vt_begin), (vt_end),      \
                    ##__VA_ARGS__)
// Flow-event trio: connect spans across tracks under one correlation id
// (chrome ph "s"/"t"/"f"). Same name/category/id for all three.
#define MANTIS_FLOW_START(tracer, name, category, track, at, id)            \
  (tracer).flow(::mantis::telemetry::TraceEvent::Phase::kFlowStart, (name), \
                (category), (track), (at), (id))
#define MANTIS_FLOW_STEP(tracer, name, category, track, at, id)            \
  (tracer).flow(::mantis::telemetry::TraceEvent::Phase::kFlowStep, (name), \
                (category), (track), (at), (id))
#define MANTIS_FLOW_END(tracer, name, category, track, at, id)            \
  (tracer).flow(::mantis::telemetry::TraceEvent::Phase::kFlowEnd, (name), \
                (category), (track), (at), (id))
#else
#define MANTIS_SPAN(tracer, name, category, track, ...) \
  do {                                                  \
  } while (false)
#define MANTIS_INSTANT(tracer, name, category, track, at, ...) \
  do {                                                         \
  } while (false)
#define MANTIS_SPAN_RECORD(tracer, name, category, track, vt_begin, vt_end, \
                           ...)                                             \
  do {                                                                      \
  } while (false)
#define MANTIS_FLOW_START(tracer, name, category, track, at, id) \
  do {                                                           \
  } while (false)
#define MANTIS_FLOW_STEP(tracer, name, category, track, at, id) \
  do {                                                          \
  } while (false)
#define MANTIS_FLOW_END(tracer, name, category, track, at, id) \
  do {                                                         \
  } while (false)
#endif
