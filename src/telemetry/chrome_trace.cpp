#include "telemetry/chrome_trace.hpp"

#include "telemetry/metrics.hpp"  // write_text_file
#include "telemetry/prof/prof.hpp"

namespace mantis::telemetry {

namespace {

constexpr auto kInline = JsonWriter::Layout::kInline;
constexpr unsigned kProfTid = 6;  // the profiler's lane, after the tracer's

const char* phase_name(TraceEvent::Phase phase) {
  switch (phase) {
    case TraceEvent::Phase::kComplete: return "X";
    case TraceEvent::Phase::kInstant: return "i";
    case TraceEvent::Phase::kFlowStart: return "s";
    case TraceEvent::Phase::kFlowStep: return "t";
    case TraceEvent::Phase::kFlowEnd: return "f";
  }
  return "X";
}

}  // namespace

ChromeTraceWriter::ChromeTraceWriter() {
  w_.begin_object();
  w_.field("displayTimeUnit", "ns").key("traceEvents").begin_array();
}

void ChromeTraceWriter::lane(unsigned tid, std::string_view name) {
  w_.begin_object(kInline);
  w_.field("ph", "M").field("pid", 0).field("tid", tid);
  w_.field("name", "thread_name").key("args").begin_object(kInline);
  w_.field("name", name).end_object();
  w_.end_object();
}

JsonWriter& ChromeTraceWriter::begin_event(std::string_view name,
                                           std::string_view cat,
                                           std::string_view ph) {
  w_.begin_object(kInline);
  return w_.field("name", name).field("cat", cat).field("ph", ph);
}

void ChromeTraceWriter::time(std::string_view key, Time ns) {
  w_.key(key).fixed(ns, 3);
}

std::string ChromeTraceWriter::take() {
  w_.end_array();
  w_.end_object();
  return w_.take() + "\n";
}

std::string chrome_trace_json(const Tracer& tracer,
                              const prof::Profiler* profiler) {
  ChromeTraceWriter out;
  for (std::size_t t = 0; t < kNumTracks; ++t) {
    out.lane(static_cast<unsigned>(t), track_name(static_cast<Track>(t)));
  }

  for (const auto& ev : tracer.events()) {
    JsonWriter& w = out.begin_event(ev.name, ev.category, phase_name(ev.phase));
    w.field("pid", 0).field("tid", static_cast<unsigned>(ev.track));
    out.time("ts", ev.vt_begin);
    if (ev.phase == TraceEvent::Phase::kComplete) {
      out.time("dur", ev.vt_dur);
    } else if (ev.phase == TraceEvent::Phase::kInstant) {
      w.field("s", "t");
    } else {
      // Flow events carry the correlation id; the end event binds to the
      // enclosing slice ("bp": "e") so a dangling start stays valid JSON and
      // simply renders as an unterminated arrow.
      w.field("id", ev.flow_id);
      if (ev.phase == TraceEvent::Phase::kFlowEnd) w.field("bp", "e");
    }
    w.key("args").begin_object(kInline);
    w.field("wall_ns", ev.wall_ns);
    if (ev.arg_name != nullptr) w.field(ev.arg_name, ev.arg);
    w.end_object();
    out.end_event();
  }

  // Profiler counter tracks: per-kind host-cycle burn rate over virtual
  // time, rendered as stacked area charts (ph "C") on a dedicated lane.
  // Counter events carry per-interval *deltas* of the cumulative per-kind
  // self-time so the chart shows where host time went in each window.
  if (profiler != nullptr) {
    const prof::ProfileReport rep = profiler->report();
    if (!rep.samples.empty()) out.lane(kProfTid, "prof");
    // Opens a counter event and its "args" object.
    auto counter = [&out](const char* name, Time vt) -> JsonWriter& {
      JsonWriter& w = out.begin_event(name, "prof", "C");
      w.field("pid", 0).field("tid", kProfTid);
      out.time("ts", vt);
      w.key("args").begin_object(kInline);
      return w;
    };
    prof::ProfileReport::Sample prev{};
    for (const auto& s : rep.samples) {
      JsonWriter& w = counter("prof.self_ns", s.vt);
      for (std::size_t k = 0; k < prof::kNumKinds; ++k) {
        const std::uint64_t cur = s.kind_self_ns[k];
        const std::uint64_t delta =
            cur >= prev.kind_self_ns[k] ? cur - prev.kind_self_ns[k] : 0;
        if (cur == 0 && delta == 0) continue;
        w.field(prof::kind_name(static_cast<prof::EventKind>(k)), delta);
      }
      w.end_object();
      out.end_event();
      counter("prof.events", s.vt).field("events", s.events - prev.events);
      w.end_object();
      out.end_event();
      prev = s;
    }
  }
  return out.take();
}

void write_chrome_trace(const std::string& path, const Tracer& tracer,
                        const prof::Profiler* profiler) {
  write_text_file(path, chrome_trace_json(tracer, profiler));
}

}  // namespace mantis::telemetry
