// Golden-output pins for the p4r_inspect rendering surface. The CLI
// subcommands (show / diff / int / channel) are thin wrappers over these
// library renderers, so pinning the renderer output byte-exactly pins the
// tool's output format — any drift in event rows, header fields, or the
// channel/INT summaries fails here with the exact textual delta.
#include <gtest/gtest.h>

#include "int/collector.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/inspect.hpp"

namespace mantis::telemetry {
namespace {

// A fixed dump covering every renderer input: events of several kinds (one
// carrying a rendered INT report as its detail payload), a driver-channel
// utilization snapshot, and a plain switch-state snapshot.
MfrDump sample_dump() {
  MfrDump dump;
  dump.reason = "unit test";
  dump.vt = 5000;
  dump.recorded = 4;
  dump.dropped = 0;

  FlightEvent e1;
  e1.t = 1000;
  e1.seq = 1;
  e1.kind = FlightEvent::Kind::kDriverOp;
  e1.reaction_id = 7;
  e1.name = "write_table";
  e1.detail = "entry add";
  dump.events.push_back(e1);

  FlightEvent e2;
  e2.t = 2000;
  e2.seq = 2;
  e2.kind = FlightEvent::Kind::kMalleable;
  e2.reaction_id = 7;
  e2.name = "mv0";
  e2.value = 5;
  dump.events.push_back(e2);

  FlightEvent e3;
  e3.t = 3000;
  e3.seq = 3;
  e3.kind = FlightEvent::Kind::kReaction;
  e3.reaction_id = 7;
  e3.name = "iteration";
  dump.events.push_back(e3);

  int_tel::IntReport rep;
  rep.sink = 2;
  rep.seq = 5;
  rep.proto = 254;
  rep.flow_src = 101;
  rep.flow_dst = 202;
  rep.hops.push_back(int_tel::IntHop{1, 500, 128, 3, int_tel::kSyntheticIngress});
  rep.hops.push_back(int_tel::IntHop{2, 250, 64, 1, 4});
  FlightEvent e4;
  e4.t = 4000;
  e4.seq = 4;
  e4.kind = FlightEvent::Kind::kIntReport;
  e4.name = "sink";
  e4.detail = rep.render();
  dump.events.push_back(e4);

  dump.snapshots.push_back(MfrDump::Snapshot{
      "driver.channel[n0]",
      {"ops=12 busy_ns=3400 depth=2 free_at=4600 utilization_permille=687"}});
  dump.snapshots.push_back(MfrDump::Snapshot{"switch.state", {"reg r0 = 1 2"}});
  return dump;
}

TEST(InspectCli, ShowGolden) {
  EXPECT_EQ(
      mfr_show_text(sample_dump()),
      "mfr dump: reason=\"unit test\" vt=5000ns events=4 (recorded=4 "
      "dropped=0) snapshots=2\n"
      "events:\n"
      "  #1 t=1000ns driver_op reaction=7 write_table (entry add)\n"
      "  #2 t=2000ns malleable reaction=7 mv0 value=5\n"
      "  #3 t=3000ns reaction reaction=7 iteration\n"
      "  #4 t=4000ns int_report sink (sink=2 seq=5 proto=254 trunc=0 src=101 "
      "dst=202 hops=1:500:128:3:65535/2:250:64:1:4)\n"
      "snapshot driver.channel[n0]:\n"
      "  ops=12 busy_ns=3400 depth=2 free_at=4600 utilization_permille=687\n"
      "snapshot switch.state:\n"
      "  reg r0 = 1 2\n");
}

TEST(InspectCli, DiffWindowGolden) {
  // Window [1500, 3500] excludes the driver op and the INT report; the
  // iteration event inside it marks reaction 7 as ended.
  EXPECT_EQ(
      mfr_diff_text(sample_dump(), 1500, 3500),
      "mfr dump: reason=\"unit test\" vt=5000ns events=4 (recorded=4 "
      "dropped=0) snapshots=2\n"
      "window [1500ns, 3500ns]:\n"
      "  #2 t=2000ns malleable reaction=7 mv0 value=5\n"
      "  #3 t=3000ns reaction reaction=7 iteration\n"
      "2 events in window; reactions touched: 7(ended)\n");
}

TEST(InspectCli, DiffSwapsReversedBounds) {
  const MfrDump dump = sample_dump();
  EXPECT_EQ(mfr_diff_text(dump, 3500, 1500), mfr_diff_text(dump, 1500, 3500));
}

TEST(InspectCli, IntGolden) {
  // The synthetic-ingress sentinel renders as in=probe; hop rows keep
  // source-to-sink stamp order.
  EXPECT_EQ(mfr_int_text(sample_dump()),
            "t=4000 sink=n2 seq=5 proto=254 flow 101->202\n"
            "    n1 in=probe out=3 latency=500ns queue=128B\n"
            "    n2 in=4 out=1 latency=250ns queue=64B\n"
            "1 INT report(s) in dump (recorder samples 1 in N; see "
            "net.int.sink_reports for the full count)\n");
}

TEST(InspectCli, IntUnparseableReportIsSurfaced) {
  MfrDump dump = sample_dump();
  dump.events[3].detail = "garbage";
  EXPECT_EQ(mfr_int_text(dump),
            "t=4000 <unparseable int_report: garbage>\n"
            "1 INT report(s) in dump (recorder samples 1 in N; see "
            "net.int.sink_reports for the full count)\n");
}

TEST(InspectCli, ChannelGolden) {
  // busy 3400ns renders as 3.4us; utilization 687 permille as 68.7%.
  EXPECT_EQ(
      mfr_channel_text(sample_dump()),
      "driver.channel[n0]: ops=12 busy=3.4us in_flight=2 free_at=4600ns "
      "utilization=68.7%\n"
      "1 channel(s); utilization is busy time / virtual time at dump. "
      "Batched transfers land as one occupancy each; see "
      "driver.channel.depth_at_submit for the pipelining histogram.\n");
}

TEST(InspectCli, ChannelMissingSnapshotExplains) {
  MfrDump dump = sample_dump();
  dump.snapshots.clear();
  EXPECT_EQ(mfr_channel_text(dump),
            "no driver.channel snapshot in dump (pre-channel-gauge .mfr?)\n");
}

TEST(InspectCli, RenderersRoundTripThroughMfrText) {
  // The CLI always goes through render_mfr/parse_mfr; the renderers must
  // not depend on anything the text format loses.
  const MfrDump dump = sample_dump();
  const MfrDump reparsed = parse_mfr(render_mfr(dump));
  EXPECT_EQ(mfr_show_text(reparsed), mfr_show_text(dump));
  EXPECT_EQ(mfr_int_text(reparsed), mfr_int_text(dump));
  EXPECT_EQ(mfr_channel_text(reparsed), mfr_channel_text(dump));
}

TEST(InspectCli, ChromeExportKeepsEveryNanosecondDigit) {
  // 1005 ns and 1050 ns are distinct instants: 1.005 us and 1.050 us.
  MfrDump dump;
  FlightEvent a;
  a.t = 1005;
  a.seq = 1;
  a.name = "a";
  FlightEvent b = a;
  b.t = 1050;
  b.seq = 2;
  b.name = "b";
  dump.events = {a, b};
  const std::string json = mfr_chrome_json(dump);
  EXPECT_NE(json.find("\"name\": \"a\", \"cat\": \"mfr\", \"ph\": \"i\", "
                      "\"s\": \"t\", \"pid\": 0, \"tid\": 2, \"ts\": 1.005,"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"name\": \"b\", \"cat\": \"mfr\", \"ph\": \"i\", "
                      "\"s\": \"t\", \"pid\": 0, \"tid\": 2, \"ts\": 1.050,"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace mantis::telemetry
