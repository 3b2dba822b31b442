// Golden-byte pins for every JSON artefact producer: the metrics snapshot,
// the bench report (with and without an embedded profile), the profile
// report, both Chrome trace exporters and the compiled-program JSON. Each
// renders a fixed input and must match its file under tests/golden/ byte
// for byte. On a mismatch the test also writes the rendering to
// `<name>.actual` in its working directory, for diffing against the pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>

#include "compile/compiler.hpp"
#include "p4/json.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/inspect.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof/prof.hpp"
#include "telemetry/trace.hpp"

#ifndef MANTIS_TEST_DATA_DIR
#define MANTIS_TEST_DATA_DIR "."
#endif

namespace mantis {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path =
      std::string(MANTIS_TEST_DATA_DIR) + "/golden/" + name;
  const std::string expected = slurp(path);
  EXPECT_FALSE(expected.empty()) << "missing pin " << path;
  EXPECT_EQ(actual, expected) << "pin " << name;
  if (actual != expected) {
    std::ofstream(name + ".actual", std::ios::binary) << actual;
  }
}

// Wall-clock capture instants differ per run: zero every "wall_ns" value.
std::string mask_wall_ns(const std::string& json) {
  const std::string key = "\"wall_ns\": ";
  std::string out;
  std::size_t from = 0;
  for (auto at = json.find(key); at != std::string::npos;
       at = json.find(key, from)) {
    out.append(json, from, at + key.size() - from).append("0");
    from = std::min(json.find_first_not_of("0123456789", at + key.size()),
                    json.size());
  }
  return out.append(json, from);
}

// A counter, a gauge, an empty histogram and one spanning several export
// buckets, including the overflow bucket.
void fill_registry(telemetry::MetricsRegistry& reg) {
  reg.counter("pin.count").add(42);
  reg.gauge("pin.gauge").set(2.625);
  reg.histogram("pin.hist.empty");
  telemetry::HistogramOptions opts;
  opts.first_bucket = 100;
  opts.buckets = 4;
  auto& h = reg.histogram("pin.hist.lat", opts);
  for (const std::uint64_t v : {7u, 90u, 150u, 151u, 333u, 780u, 5000u}) {
    h.record(v);
  }
}

telemetry::ReportParams sample_params() {
  telemetry::ReportParams params;
  params.set("label", "a \"quoted\"\tname\x01");
  params.set("trials", std::int64_t{-16});
  params.set("ratio", 0.1);
  params.set("whole", 3.0);
  return params;
}

telemetry::prof::ProfileReport sample_profile() {
  using telemetry::prof::EventKind;
  telemetry::prof::ProfileReport rep;
  rep.compiled = true;
  rep.enabled = true;
  rep.events = 1200;
  rep.wall_ns = 987654;
  rep.event_allocs = 300;
  rep.lifetime_allocs = 4000;
  rep.lifetime_frees = 3900;
  rep.kinds[static_cast<std::size_t>(EventKind::kOther)] = {5, 1000, 1};
  rep.kinds[static_cast<std::size_t>(EventKind::kPipelineExecute)] = {
      700, 600000, 250};
  rep.sites.push_back({"event.dispatch", EventKind::kOther, 5, 1000, 1});
  rep.sites.push_back(
      {"switch \"ingress\"", EventKind::kPipelineExecute, 700, 600000, 250});
  rep.shards.push_back({800, 500000, 200});
  rep.shards.push_back({400, 300000, 100});
  rep.heap = {1300, 1250, 64, 900, 12};
  rep.rounds.rounds = 3;
  rep.rounds.barrier_stall_ns = 4500;
  rep.rounds.idle_shard_rounds = 1;
  rep.rounds.sum_round_max_events = 800;
  rep.rounds.sum_round_events = 1200;
  rep.rounds.shard_count = 2;
  telemetry::prof::ProfileReport::Sample s1;
  s1.vt = 1000;
  s1.events = 400;
  s1.kind_self_ns[static_cast<std::size_t>(EventKind::kPipelineExecute)] =
      200000;
  telemetry::prof::ProfileReport::Sample s2 = s1;
  s2.vt = 2005;
  s2.events = 1200;
  s2.kind_self_ns[static_cast<std::size_t>(EventKind::kOther)] = 1000;
  s2.kind_self_ns[static_cast<std::size_t>(EventKind::kPipelineExecute)] =
      600000;
  rep.samples = {s1, s2};
  return rep;
}

TEST(JsonPins, MetricsSnapshot) {
  telemetry::MetricsRegistry reg;
  fill_registry(reg);
  expect_golden("metrics_snapshot.json", reg.snapshot_json());
  // An empty container stays on one line, as in every artefact.
  EXPECT_EQ(telemetry::MetricsRegistry().snapshot_json(), "{}");
}

TEST(JsonPins, ReportWithParams) {
  telemetry::MetricsRegistry reg;
  fill_registry(reg);
  expect_golden("report.json",
                telemetry::report_json("pin", sample_params(), reg));
}

TEST(JsonPins, ReportWithProfile) {
  telemetry::MetricsRegistry reg;
  fill_registry(reg);
  const auto profile = sample_profile();
  expect_golden("report_prof.json",
                telemetry::report_json("pin", {}, reg, &profile));
}

TEST(JsonPins, ProfileReport) {
  expect_golden("profile.json", sample_profile().to_json());
  expect_golden("profile_empty.json",
                telemetry::prof::ProfileReport{}.to_json());
}

TEST(JsonPins, ChromeTraceWithProfilerTracks) {
  using telemetry::Track;
  using telemetry::TraceEvent;
  telemetry::Tracer t;
  t.set_enabled(true);
  t.complete("dialogue.\"iteration\"", "agent", Track::kAgent, 1000, 3505,
             "reaction", 7);
  t.complete("switch.ingress", "switch", Track::kSwitch, 1050, 1080);
  t.instant("tm.drop", "tm", Track::kTrafficManager, 2001, "port", 3);
  t.flow(TraceEvent::Phase::kFlowStart, "reaction", "prov", Track::kAgent,
         1000, 7);
  t.flow(TraceEvent::Phase::kFlowStep, "reaction", "prov",
         Track::kDriverChannel, 2500, 7);
  t.flow(TraceEvent::Phase::kFlowEnd, "reaction", "prov", Track::kSwitch,
         4000, 7);

  using telemetry::prof::EventKind;
  telemetry::prof::Profiler prof;
  const auto transit =
      telemetry::prof::register_site("pin.transit", EventKind::kPacketTransit);
  const auto ingress = telemetry::prof::register_site(
      "pin.ingress", EventKind::kPipelineExecute);
  prof.count_event(-1, 900, 0);
  prof.attribute(transit, 0, 400, 0);
  prof.attribute(ingress, 0, 500, 0);
  prof.sample(1000);
  prof.count_event(-1, 300, 0);
  prof.attribute(ingress, 0, 250, 0);
  prof.sample(3005);

  expect_golden("chrome_trace.json",
                mask_wall_ns(telemetry::chrome_trace_json(t, &prof)));
}

TEST(JsonPins, MfrChromeExport) {
  const auto dump = telemetry::parse_mfr(
      "MFR/1\n"
      "reason pin\n"
      "vt 6000\n"
      "recorded 5 dropped 0\n"
      "events 5\n"
      "1\t1005\tdriver_op\t7\t0\twrite_table\tentry \"add\"\n"
      "2\t1050\tmalleable\t7\t5\tmv0\t\n"
      "3\t2000\tfault\t0\t1\tlink s0-s1\tdown\n"
      "4\t3999\tdriver_op\t7\t0\tread_register\t\n"
      "5\t5000\treaction\t7\t0\titeration\tpoll=2ns\n"
      "end\n");
  expect_golden("mfr_chrome.json", telemetry::mfr_chrome_json(dump));
}

TEST(JsonPins, Figure1Program) {
  const auto art = compile::compile_source(slurp(
      std::string(MANTIS_TEST_DATA_DIR) + "/../examples/p4r/figure1.p4r"));
  expect_golden("figure1.json", p4::emit_json(art.prog));
}

}  // namespace
}  // namespace mantis
