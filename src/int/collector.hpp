// INT report collection: the sink role's export target.
//
// Each sink switch strips the INT stack at its host-facing egress and
// exports one IntReport; the collector appends it to a global stream (and
// per-sink substreams) that control-plane consumers poll by cursor — the
// Mantis reactions in apps/int_gray_localization and apps/int_congestion
// are such consumers, each keeping its own cursor so multiple reactions can
// read the same stream independently.
//
// Determinism: exports from fabric shards are deferred through the
// telemetry ShardLane exactly like metric sinks, so the stream order (and
// every seq / summary derived from it) is byte-identical between the
// sequential and parallel engines.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "int/header.hpp"
#include "util/time.hpp"

namespace mantis::int_tel {

/// One exported report: the stripped stack plus the sink's own context.
struct IntReport {
  Time rx_time = 0;           ///< virtual ns at the sink's egress
  std::uint32_t sink = 0;     ///< sink switch node id
  std::uint32_t seq = 0;      ///< source-assigned sequence number
  bool truncated = false;     ///< stack hit max_hops before the sink
  std::uint32_t flow_src = 0; ///< carrier's ipv4.srcAddr
  std::uint32_t flow_dst = 0; ///< carrier's ipv4.dstAddr
  std::uint8_t proto = 0;     ///< carrier's ipv4.protocol (254 = probe)
  std::vector<IntHop> hops;   ///< source-to-sink stamp order

  /// One-line deterministic rendering (used verbatim as the flight-recorder
  /// detail payload, so p4r_inspect can pretty-print reports from .mfr
  /// dumps): "sink=2 seq=5 proto=254 trunc=0 src=... dst=... hops=<sw>:<lat>:<q>:<eg>:<in>/..."
  std::string render() const;
  /// Inverse of render(); returns false on malformed input.
  static bool parse(const std::string& line, IntReport& out);
};

class IntCollector {
 public:
  /// Appends to the stream (deferred via ShardLane when called from a
  /// fabric shard, so call sites never need to care about the engine).
  void export_report(IntReport r);

  /// The global stream, export order (== canonical event order).
  const std::vector<IntReport>& stream() const { return stream_; }
  std::size_t size() const { return stream_.size(); }

  /// Cursor polling: returns stream indices [cursor, size) and advances
  /// the caller's cursor. Each consumer owns its cursor.
  std::vector<const IntReport*> poll(std::size_t& cursor) const;

  std::uint64_t reports_from(std::uint32_t sink) const;

  /// Deterministic multi-line text: totals, per-sink counts, hop-count
  /// distribution, queue/latency maxima. Examples print this under --int.
  std::string summary() const;

 private:
  void append(IntReport r);

  std::vector<IntReport> stream_;
  std::map<std::uint32_t, std::uint64_t> per_sink_;
  std::map<std::size_t, std::uint64_t> hop_count_dist_;
  std::uint64_t truncated_ = 0;
  std::uint32_t max_queue_bytes_ = 0;
  std::uint32_t max_hop_latency_ = 0;
};

}  // namespace mantis::int_tel
