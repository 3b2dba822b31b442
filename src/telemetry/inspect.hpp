// Query/rendering helpers over parsed .mfr flight-recorder dumps, shared by
// the tools/p4r_inspect CLI and the tests. All output is deterministic
// (derived from the dump content only). JSON goes out through the shared
// Chrome trace writer (telemetry/chrome_trace.hpp) and comes in through
// util/json's parse_json.
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/flight_recorder.hpp"

namespace mantis::telemetry {

/// Human-readable overview: header, event table, snapshot sections.
std::string mfr_show_text(const MfrDump& dump);

/// Events in the virtual-time window [t1, t2] (inclusive), plus which
/// reactions opened/closed inside it.
std::string mfr_diff_text(const MfrDump& dump, Time t1, Time t2);

/// Everything attributed to one reaction id: its driver ops, iteration
/// record, malleable commits, and first-effect observation, in order.
std::string mfr_reaction_text(const MfrDump& dump, std::uint64_t reaction_id);

/// Chrome-trace JSON rendering of the dump's events (instants on per-kind
/// lanes, flow arcs per reaction id) for chrome://tracing / Perfetto. Each
/// event sits at its exact virtual time (1005 ns is "ts": 1.005).
std::string mfr_chrome_json(const MfrDump& dump);

/// Pretty-prints the dump's sampled INT sink reports (kind int_report),
/// expanding each hop record onto its own line.
std::string mfr_int_text(const MfrDump& dump);

/// Renders every driver-channel utilization snapshot in the dump (one per
/// switch in fabric dumps). The channel provider emits a single key=value
/// line: ops= busy_ns= depth= free_at= utilization_permille=.
std::string mfr_channel_text(const MfrDump& dump);

/// Renders a hot-path profile (prof::ProfileReport::to_json() or a bench
/// report embedding one under "prof") as a text breakdown: per-kind cost
/// table, top sites, heap counters, shard balance. Throws UserError on
/// malformed JSON or a report without a prof section.
std::string prof_report_text(const std::string& json);

}  // namespace mantis::telemetry
