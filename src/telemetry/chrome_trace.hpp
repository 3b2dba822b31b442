// Chrome trace_event JSON, the format chrome://tracing and Perfetto load
// directly. ChromeTraceWriter is the one writer behind both exporters: a
// live Tracer's retained events (chrome_trace_json) and a parsed .mfr dump
// (telemetry/inspect.hpp, mfr_chrome_json). Both render through util/json.
// Virtual time maps to the trace timeline (ts/dur, microseconds); a
// Tracer's wall-clock capture instant rides along as an event argument.
#pragma once

#include <string>
#include <string_view>

#include "telemetry/trace.hpp"
#include "util/json.hpp"

namespace mantis::telemetry {

namespace prof {
class Profiler;
}  // namespace prof

/// {"displayTimeUnit": "ns", "traceEvents": [...]} with one event object per
/// line. Times are virtual ns written as microseconds with all three
/// fraction digits (1005 ns is 1.005).
class ChromeTraceWriter {
 public:
  ChromeTraceWriter();

  /// Names lane `tid` of pid 0 (a "thread_name" metadata event).
  void lane(unsigned tid, std::string_view name);
  /// Opens an event with its "name", "cat" and "ph" members. Add the rest
  /// through the returned writer and time(), then close it with end_event().
  JsonWriter& begin_event(std::string_view name, std::string_view cat,
                          std::string_view ph);
  /// Member `key` holding virtual time `ns` in microseconds.
  void time(std::string_view key, Time ns);
  void end_event() { w_.end_object(); }
  /// The finished document, newline-terminated.
  std::string take();

 private:
  JsonWriter w_{0};
};

/// Serializes the trace. Tracks become named pseudo-threads of pid 0.
/// Complete events use ph "X", instants ph "i" (thread scope). When
/// `profiler` is non-null and has samples, its per-kind self-time series
/// render as Chrome counter tracks (ph "C", "prof" lane) alongside the spans.
std::string chrome_trace_json(const Tracer& tracer,
                              const prof::Profiler* profiler = nullptr);

/// Writes chrome_trace_json to `path`; throws UserError on I/O failure.
void write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const prof::Profiler* profiler = nullptr);

}  // namespace mantis::telemetry
