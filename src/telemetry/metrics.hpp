// Unified metrics for the whole stack: counters, gauges, and histograms
// (fixed geometric buckets + streaming P² quantiles, built on util/stats),
// collected in one per-stack MetricsRegistry and exported as a JSON snapshot
// that benches and examples emit as machine-readable results.
//
// Design constraints, in order:
//  * recording must be cheap enough for per-iteration/per-op hot paths —
//    callers cache the Counter*/Gauge*/Histogram* returned by the registry
//    at construction time, so the steady state is pointer arithmetic only;
//  * names are stable, dot-separated, and documented in docs/TELEMETRY.md;
//  * snapshots are deterministic (name-sorted) so runs diff cleanly.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/shard_lane.hpp"
#include "util/stats.hpp"

namespace mantis::telemetry {

/// Monotonically increasing event count. Additions are relaxed atomics:
/// sums are order-independent, so counters need no lane deferral to stay
/// deterministic under the parallel fabric engine.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, utilization, ...).
/// Order-dependent, so sets from shard contexts defer through the thread's
/// ShardLane, and the barrier applies the one with the highest canonical
/// event key.
class Gauge {
 public:
  void set(double v) {
    if (ShardLane* lane = ShardLane::current()) {
      lane->defer(slot_.get(), {this, &apply_set, true}, v);
      return;
    }
    value_ = v;
  }
  double value() const { return value_; }

 private:
  static void apply_set(void* gauge, double v) {
    static_cast<Gauge*>(gauge)->value_ = v;
  }

  double value_ = 0;
  LaneSlot slot_;
};

struct HistogramOptions {
  /// Upper bound of the first bucket; subsequent bounds grow geometrically.
  double first_bucket = 1024.0;
  double growth = 2.0;
  std::size_t buckets = 24;  ///< + one implicit overflow bucket
  /// Streaming quantiles tracked (P² markers, O(1) memory each).
  std::vector<double> quantiles = {0.50, 0.90, 0.99};
  /// Also retain every raw sample (util/stats Samples) for exact
  /// percentiles. Bench-scale only; the agent uses it to keep the historical
  /// iteration_latencies() accessor exact.
  bool keep_raw = false;
};

/// Fixed-bucket histogram with streaming mean/stddev/min/max (OnlineStats)
/// and streaming quantile estimates (P2Quantile). All three reuse util/stats
/// rather than re-deriving the math here.
class Histogram {
 public:
  explicit Histogram(HistogramOptions opts = {});

  /// Records one sample. P² quantile markers make this insertion-order
  /// dependent, so calls from shard contexts defer through the ShardLane
  /// (replayed in canonical event order at round barriers).
  void record(double v) {
    if (ShardLane* lane = ShardLane::current()) {
      lane->defer(slot_.get(), {this, &apply_record, false}, v);
      return;
    }
    record_direct(v);
  }

  std::uint64_t count() const { return total_; }
  const OnlineStats& stats() const { return stats_; }

  /// Bucket counts; index buckets() is the overflow bucket.
  std::size_t buckets() const { return bounds_.size(); }
  double bucket_upper_bound(std::size_t i) const { return bounds_[i]; }
  std::uint64_t bucket_count(std::size_t i) const { return counts_[i]; }

  /// Quantile estimate for one of the configured quantiles (exact when
  /// keep_raw). Throws UserError if `q` was not configured and keep_raw is
  /// off, or when empty.
  double quantile(double q) const;
  const std::vector<double>& tracked_quantiles() const { return opts_.quantiles; }

  bool keeps_raw() const { return opts_.keep_raw; }
  /// Raw sample view; requires keep_raw.
  const Samples& raw() const;

 private:
  void record_direct(double v);
  static void apply_record(void* histogram, double v) {
    static_cast<Histogram*>(histogram)->record_direct(v);
  }

  HistogramOptions opts_;
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 (overflow)
  std::uint64_t total_ = 0;
  OnlineStats stats_;
  std::vector<P2Quantile> quantiles_;
  Samples raw_;
  LaneSlot slot_;
};

/// Name -> metric. One registry per stack (owned by the sim::EventLoop's
/// Telemetry bundle); deterministic iteration order for export.
class MetricsRegistry {
 public:
  /// Gets or creates. Returned pointers are stable for the registry's
  /// lifetime (callers cache them).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `opts` applies only on first creation.
  Histogram& histogram(const std::string& name, HistogramOptions opts = {});

  /// Lookup without creating; nullptr when absent or of a different kind.
  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  std::size_t size() const { return metrics_.size(); }

  /// JSON object mapping each metric name to its snapshot:
  ///   counters   -> {"type":"counter","value":N}
  ///   gauges     -> {"type":"gauge","value":X}
  ///   histograms -> {"type":"histogram","count":N,"mean":...,"min":...,
  ///                  "max":...,"p50":...,...,"buckets":[[le,count],...]}
  /// Deterministic (name-sorted), 2-space indent.
  std::string snapshot_json() const;

 private:
  struct Entry {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  /// Guards map mutation/lookup only (lazy creation can race from shard
  /// workers — e.g. a TrafficManager's first per-port depth gauge). The
  /// metric objects themselves are not guarded; see each sink's contract.
  mutable std::mutex mu_;
  std::map<std::string, Entry> metrics_;
};

/// The bench/example results schema: {"bench":name,"params":{...},
/// "metrics":<registry snapshot>}. Params are emitted in insertion order.
class ReportParams {
 public:
  void set(const std::string& key, const std::string& value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, double value);
  const std::vector<std::pair<std::string, std::string>>& raw() const {
    return kv_;  // values pre-rendered as JSON literals
  }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

std::string report_json(const std::string& bench, const ReportParams& params,
                        const MetricsRegistry& metrics);

/// Report with an embedded hot-path profile: `prof_json` is a pre-rendered
/// JSON object (prof::ProfileReport::to_json()), spliced in as the "prof"
/// key. Empty `prof_json` degenerates to the plain report.
std::string report_json(const std::string& bench, const ReportParams& params,
                        const MetricsRegistry& metrics,
                        const std::string& prof_json);

/// Writes `content` to `path`; throws UserError on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

/// Escapes a string for embedding in a JSON string literal (no quotes).
std::string json_escape(const std::string& s);

}  // namespace mantis::telemetry
