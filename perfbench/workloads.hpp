// The three benchmark workloads, driven only through the library's public
// API. Each repetition builds its inputs from the seed, runs a fixed virtual
// horizon to completion, and returns host timings, the deterministic
// outputs run.py checks, the virtual-time metrics, and (traced repetitions
// only) per-layer metrics from the profiler and the benchmark's own spans.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/prof/prof.hpp"

namespace perfbench {

/// Scales a workload's virtual horizon down for smoke tests; 1 = full size.
struct RepOptions {
  std::uint64_t seed = 1;
  bool traced = false;
  int threads = 4;
  double scale = 1.0;
};

/// Ordered name -> value maps keep the JSON output stable.
using Values = std::map<std::string, double>;

struct RepResult {
  double setup_s = 0;   ///< rep start -> first simulated data-plane event
  double run_s = 0;     ///< run phase wall time (to the virtual horizon)
  double pkts = 0;      ///< switch ingress passes, all switches
  double dialogues = 0; ///< dialogue iterations, all agents
  /// Deterministic outputs compared against the seed's reference. Strings
  /// so digests and exact integers survive the trip through JSON.
  std::map<std::string, std::string> outputs;
  Values virtual_metrics;  ///< repeat exactly for a given seed
  Values layers;           ///< traced repetitions only
  std::string prof_json;   ///< traced repetitions: mantis-prof/1 report
};

// ---------------------------------------------------------------------------
// Spans: the benchmark's own timing around calls into each layer. Every span
// lands in SpanLog (written out as a Chrome trace when the benchmark ends);
// spans opened while a profiler is enabled also become profiler scopes, so
// the profiler's self-time accounting excludes them from their parents.

struct SpanRecord {
  std::string name;
  int rep = 0;
  int parent = -1;  ///< index into SpanLog::records, -1 = root
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

class SpanLog {
 public:
  static constexpr std::size_t kMaxRecords = 1 << 20;

  int rep = 0;
  std::vector<SpanRecord> records;
  std::size_t dropped = 0;
  int open = -1;  ///< innermost open span (main thread only)

  /// {"traceEvents": [...]} in Chrome trace_event format, microseconds.
  std::string chrome_json() const;
};

class Span {
 public:
  /// `prof` may be null or disabled: the span is then recorded in `log`
  /// only. `log` may be null: the span only times (elapsed_ns()).
  Span(SpanLog* log, const char* name,
       mantis::telemetry::prof::Profiler* prof = nullptr,
       mantis::telemetry::prof::EventKind kind =
           mantis::telemetry::prof::EventKind::kOther);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t elapsed_ns() const;

 private:
  SpanLog* log_;
  int index_ = -1;
  int parent_ = -1;
  std::int64_t t0_;
  std::optional<mantis::telemetry::prof::ProfScope> scope_;
};

RepResult run_clos_dataplane(const RepOptions& opts, SpanLog& spans);
RepResult run_gray_reactive(const RepOptions& opts, SpanLog& spans);
RepResult run_route_churn(const RepOptions& opts, SpanLog& spans);

/// Every per-layer metric name, in report order, with its unit. A traced
/// repetition reports each of them (0 where the layer does not run).
const std::vector<std::pair<std::string, std::string>>& layer_metric_units();

}  // namespace perfbench
