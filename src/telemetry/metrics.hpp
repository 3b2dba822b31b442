// Unified metrics for the whole stack: counters, gauges, and histograms
// (exact counts on a log-linear grid plus fixed geometric export buckets),
// collected in one per-stack MetricsRegistry and exported as a JSON snapshot
// that benches and examples emit as machine-readable results.
//
// Design constraints, in order:
//  * recording must be cheap enough for per-iteration/per-op hot paths —
//    callers cache the Counter*/Gauge*/Histogram* returned by the registry
//    at construction time, so the steady state is pointer arithmetic only;
//  * every sink is order-free, so the parallel fabric engine's workers
//    record in place and a parallel run reads exactly like a sequential one
//    (telemetry/shard_lane.hpp);
//  * names are stable, dot-separated, and documented in docs/TELEMETRY.md;
//  * snapshots are deterministic (name-sorted) so runs diff cleanly.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "telemetry/shard_lane.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"

namespace mantis::telemetry {

namespace prof {
struct ProfileReport;
}  // namespace prof

/// Monotonically increasing event count. Additions are relaxed atomics:
/// sums are order-independent, so counters stay deterministic under the
/// parallel fabric engine.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// One part per engine group of an order-free sink (Histogram, Gauge).
/// Inside a parallel engine round, the worker running a group writes that
/// group's part in place; reads merge the parts between rounds. The parts
/// are allocated on the sink's first record from a shard context, sized to
/// the lane's width and one cache line apart, and grow only between rounds
/// (MetricsRegistry::group_parts_width).
template <typename Part>
class GroupParts {
 public:
  GroupParts() = default;
  GroupParts(const GroupParts&) = delete;
  GroupParts& operator=(const GroupParts&) = delete;
  ~GroupParts() { delete slots_.load(std::memory_order_relaxed); }

  /// The part of `lane`'s group; the first call allocates every part.
  Part& at(const ShardLane& lane) {
    std::vector<Slot>* slots = slots_.load(std::memory_order_acquire);
    if (slots == nullptr) slots = install(lane.groups());
    const auto g = static_cast<std::size_t>(lane.group());
    expects(g < slots->size(), "GroupParts: engine group without a part");
    return (*slots)[g].part;
  }

  /// Calls `f` on every part, in group order. Between rounds only, like
  /// clear() and grow().
  template <typename F>
  void for_each(F&& f) const {
    if (const auto* slots = slots_.load(std::memory_order_acquire)) {
      for (const Slot& s : *slots) f(s.part);
    }
  }
  void clear() {
    if (auto* slots = slots_.load(std::memory_order_acquire)) {
      for (Slot& s : *slots) s.part = Part{};
    }
  }
  void grow(int groups) {
    auto* slots = slots_.load(std::memory_order_acquire);
    if (slots != nullptr && slots->size() < static_cast<std::size_t>(groups)) {
      slots->resize(static_cast<std::size_t>(groups));
    }
  }

 private:
  struct alignas(64) Slot {
    Part part;
  };

  std::vector<Slot>* install(int groups) {
    // Two workers may make the sink's first shard-context record at once:
    // one allocation is installed and the other dropped.
    auto* fresh = new std::vector<Slot>(static_cast<std::size_t>(groups));
    std::vector<Slot>* installed = nullptr;
    if (slots_.compare_exchange_strong(installed, fresh,
                                       std::memory_order_acq_rel)) {
      return fresh;
    }
    delete fresh;
    return installed;
  }

  std::atomic<std::vector<Slot>*> slots_{nullptr};
};

/// Last-write-wins instantaneous value (queue depth, utilization, ...).
/// A set inside an engine round writes the worker's group part, keyed by
/// the executing event; a read takes the part with the highest key, which
/// is the set a sequential run makes last. A direct set (always made
/// outside a round) supersedes the group parts and clears them.
class Gauge {
 public:
  void set(double v) {
    if (ShardLane* lane = ShardLane::current()) {
      groups_.at(*lane) = {lane->key(), v, true};
      return;
    }
    value_ = v;
    groups_.clear();
  }
  double value() const;

 private:
  friend class MetricsRegistry;

  struct Part {
    EventKey key;
    double value = 0;
    bool set = false;
  };

  double value_ = 0;
  GroupParts<Part> groups_;
};

struct HistogramOptions {
  /// Upper bound of the first export bucket; subsequent bounds grow
  /// geometrically.
  double first_bucket = 1024.0;
  double growth = 2.0;
  std::size_t buckets = 24;  ///< + one implicit overflow bucket
  /// Also retain every raw sample, in recording order (util/stats Samples),
  /// for exact interpolated percentiles. Bench-scale and outside engine
  /// rounds only; the agent uses it to keep the historical
  /// iteration_latencies() accessor exact.
  bool keep_raw = false;
};

/// Exact moments of non-negative integer samples.
struct HistogramStats {
  std::uint64_t n = 0;
  std::uint64_t sum = 0;
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;

  void add(std::uint64_t v) {
    ++n;
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  void merge(const HistogramStats& other);
  /// Each throws when empty.
  double mean() const;
  double min() const;
  double max() const;
};

/// Histogram of non-negative integer samples (virtual ns, counts). One
/// order-free form serves every context: counts on a log-linear grid —
/// exact below 128, then 64 cells per power of two — plus the exact sum,
/// min and max, and the counts of the geometric export buckets. Any
/// recording order, and any split of the samples over engine groups, reads
/// the same.
class Histogram {
 public:
  /// The quantiles every snapshot exports.
  static constexpr std::array<double, 3> kExportQuantiles = {0.50, 0.90,
                                                             0.99};

  explicit Histogram(HistogramOptions opts = {});

  /// Records one sample: in place into the worker's group part inside an
  /// engine round, into the direct part elsewhere.
  void record(std::uint64_t v) {
    if (ShardLane* lane = ShardLane::current()) {
      expects(!opts_.keep_raw,
              "Histogram: keep_raw samples are recorded outside engine rounds");
      groups_.at(*lane).add(v, bounds_);
      return;
    }
    direct_.add(v, bounds_);
    if (opts_.keep_raw) raw_.add(static_cast<double>(v));
  }

  std::uint64_t count() const { return stats().n; }
  HistogramStats stats() const;

  /// Export bucket counts; index buckets() is the overflow bucket.
  std::size_t buckets() const { return bounds_.size(); }
  double bucket_upper_bound(std::size_t i) const { return bounds_[i]; }
  std::uint64_t bucket_count(std::size_t i) const;

  /// Quantile `q` in [0, 1]: the grid cell of the nearest-rank sample, read
  /// as the cell's midpoint inside [min, max], so within 1% of that sample
  /// (the sample itself for the minimum and maximum ranks). With keep_raw,
  /// the exact interpolated percentile. Throws when empty.
  double quantile(double q) const;

  /// Raw sample view; requires keep_raw.
  const Samples& raw() const;

 private:
  friend class MetricsRegistry;

  /// One part's samples: moments, grid counts over the span of cells it
  /// has used, and export bucket counts.
  struct Part {
    HistogramStats stats;
    std::uint32_t base = 0;              ///< grid cell of cells.front()
    std::vector<std::uint64_t> cells;
    std::vector<std::uint64_t> buckets;  ///< bounds + overflow, once used
    void add(std::uint64_t v, const std::vector<double>& bounds);
  };

  template <typename F>
  void for_each_part(F&& f) const {
    f(direct_);
    groups_.for_each(f);
  }

  HistogramOptions opts_;
  std::vector<double> bounds_;
  Part direct_;
  GroupParts<Part> groups_;
  Samples raw_;
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

  /// The number of engine-group parts a sink of this registry allocates:
  /// the widest of the `groups` counts asked for so far. Widening grows the
  /// parts of every gauge and histogram that already has them. The parallel
  /// engine calls it on construction and gives its lanes this width, so a
  /// sink's parts never grow during a round.
  int group_parts_width(int groups);

  /// JSON object mapping each metric name to its snapshot:
  ///   counters   -> {"type":"counter","value":N}
  ///   gauges     -> {"type":"gauge","value":X}
  ///   histograms -> {"type":"histogram","count":N,"mean":...,"min":...,
  ///                  "max":...,"p50":...,...,"buckets":[[le,count],...]}
  /// Deterministic (name-sorted), 2-space indent.
  std::string snapshot_json() const;
  /// Writes the snapshot object as the next value of `w`.
  void write_json(JsonWriter& w) const;

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
  int group_parts_width_ = 0;  ///< guarded by mu_
};

/// The bench/example results schema: {"bench":name,"params":{...},
/// "metrics":<registry snapshot>}. Params are emitted in insertion order.
class ReportParams {
 public:
  using Value = std::variant<std::string, std::int64_t, double>;
  void set(const std::string& key, Value value) {
    kv_.emplace_back(key, std::move(value));
  }
  const std::vector<std::pair<std::string, Value>>& values() const {
    return kv_;
  }

 private:
  std::vector<std::pair<std::string, Value>> kv_;
};

/// The report; a non-null `prof` is embedded as its "prof" section
/// (prof::ProfileReport::to_json()).
std::string report_json(const std::string& bench, const ReportParams& params,
                        const MetricsRegistry& metrics,
                        const prof::ProfileReport* prof = nullptr);

/// Writes `content` to `path`; throws UserError on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

}  // namespace mantis::telemetry
