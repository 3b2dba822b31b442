#include "telemetry/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "telemetry/prof/prof.hpp"
#include "util/check.hpp"

namespace mantis::telemetry {

namespace {

std::string quantile_key(double q) {
  // 0.5 -> "p50", 0.99 -> "p99", 0.999 -> "p99.9"
  const double pct = q * 100.0;
  char buf[32];
  if (pct == std::floor(pct)) {
    std::snprintf(buf, sizeof(buf), "p%.0f", pct);
  } else {
    std::snprintf(buf, sizeof(buf), "p%g", pct);
  }
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

double Gauge::value() const {
  const Part* last = nullptr;
  groups_.for_each([&last](const Part& p) {
    if (p.set && (last == nullptr || last->key < p.key)) last = &p;
  });
  return last != nullptr ? last->value : value_;
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

namespace {

/// The log-linear grid: cell v for v < 128, then 64 cells per power of two,
/// so a cell is at most 1/64 of its lower edge wide.
constexpr std::uint64_t kExactBelow = 128;
constexpr int kSubBits = 6;
constexpr std::uint64_t kSubCells = 1u << kSubBits;

std::uint32_t grid_cell(std::uint64_t v) {
  if (v < kExactBelow) return static_cast<std::uint32_t>(v);
  const int k = std::bit_width(v) - 1;  // >= 7
  const std::uint64_t sub = (v >> (k - kSubBits)) - kSubCells;
  return static_cast<std::uint32_t>(
      kExactBelow + static_cast<std::uint64_t>(k - 7) * kSubCells + sub);
}

/// A cell's reading: its integer midpoint, within 1/128 of every sample in
/// the cell.
std::uint64_t cell_value(std::uint64_t cell) {
  if (cell < kExactBelow) return cell;
  const std::uint64_t k = 7 + (cell - kExactBelow) / kSubCells;
  const std::uint64_t width = std::uint64_t{1} << (k - kSubBits);
  return (kSubCells + (cell - kExactBelow) % kSubCells) * width + width / 2;
}

}  // namespace

void HistogramStats::merge(const HistogramStats& other) {
  n += other.n;
  sum += other.sum;
  lo = std::min(lo, other.lo);
  hi = std::max(hi, other.hi);
}

double HistogramStats::mean() const {
  expects(n > 0, "HistogramStats::mean: no samples");
  return static_cast<double>(sum) / static_cast<double>(n);
}

double HistogramStats::min() const {
  expects(n > 0, "HistogramStats::min: no samples");
  return static_cast<double>(lo);
}

double HistogramStats::max() const {
  expects(n > 0, "HistogramStats::max: no samples");
  return static_cast<double>(hi);
}

void Histogram::Part::add(std::uint64_t v, const std::vector<double>& bounds) {
  stats.add(v);
  const std::uint32_t cell = grid_cell(v);
  if (cells.empty()) {
    base = cell;
    cells.assign(1, 0);
    buckets.assign(bounds.size() + 1, 0);
  } else if (cell < base) {
    cells.insert(cells.begin(), base - cell, 0);
    base = cell;
  } else if (cell - base >= cells.size()) {
    cells.resize(cell - base + 1, 0);
  }
  ++cells[cell - base];
  // Geometric bounds: the first bound >= v is found directly.
  const auto it =
      std::lower_bound(bounds.begin(), bounds.end(), static_cast<double>(v));
  ++buckets[static_cast<std::size_t>(it - bounds.begin())];
}

Histogram::Histogram(HistogramOptions opts) : opts_(opts) {
  expects(opts_.first_bucket > 0, "Histogram: first bucket must be positive");
  expects(opts_.growth > 1.0, "Histogram: growth must exceed 1");
  expects(opts_.buckets > 0, "Histogram: need at least one bucket");
  bounds_.reserve(opts_.buckets);
  double b = opts_.first_bucket;
  for (std::size_t i = 0; i < opts_.buckets; ++i) {
    bounds_.push_back(b);
    b *= opts_.growth;
  }
}

HistogramStats Histogram::stats() const {
  HistogramStats all;
  for_each_part([&all](const Part& p) { all.merge(p.stats); });
  return all;
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  std::uint64_t n = 0;
  for_each_part([&n, i](const Part& p) {
    if (!p.buckets.empty()) n += p.buckets[i];
  });
  return n;
}

double Histogram::quantile(double q) const {
  expects(q >= 0.0 && q <= 1.0, "Histogram::quantile: q out of [0, 1]");
  const HistogramStats st = stats();
  expects(st.n > 0, "Histogram::quantile: no samples");
  if (opts_.keep_raw) return raw_.percentile(q * 100.0);
  // Nearest rank: the ceil(q * n)-th smallest sample, the first for q = 0.
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(st.n))));
  if (rank == 1) return st.min();
  if (rank == st.n) return st.max();
  std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t end = 0;
  for_each_part([&](const Part& p) {
    if (p.cells.empty()) return;
    first = std::min<std::uint64_t>(first, p.base);
    end = std::max<std::uint64_t>(end, p.base + p.cells.size());
  });
  std::vector<std::uint64_t> cells(end - first, 0);
  for_each_part([&](const Part& p) {
    for (std::size_t j = 0; j < p.cells.size(); ++j) {
      cells[p.base - first + j] += p.cells[j];
    }
  });
  std::uint64_t seen = 0;
  std::size_t j = 0;
  while ((seen += cells[j]) < rank) ++j;
  return static_cast<double>(std::clamp(cell_value(first + j), st.lo, st.hi));
}

const Samples& Histogram::raw() const {
  expects(opts_.keep_raw, "Histogram::raw: keep_raw not enabled");
  return raw_;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& e = metrics_[name];
  if (!e.counter) {
    expects(!e.gauge && !e.histogram,
            "MetricsRegistry: " + name + " already registered as another kind");
    e.counter = std::make_unique<Counter>();
  }
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& e = metrics_[name];
  if (!e.gauge) {
    expects(!e.counter && !e.histogram,
            "MetricsRegistry: " + name + " already registered as another kind");
    e.gauge = std::make_unique<Gauge>();
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      HistogramOptions opts) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& e = metrics_[name];
  if (!e.histogram) {
    expects(!e.counter && !e.gauge,
            "MetricsRegistry: " + name + " already registered as another kind");
    e.histogram = std::make_unique<Histogram>(opts);
  }
  return *e.histogram;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.counter.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.gauge.get();
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : it->second.histogram.get();
}

int MetricsRegistry::group_parts_width(int groups) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (groups <= group_parts_width_) return group_parts_width_;
  // Parts exist only if lanes of an earlier width recorded into this
  // registry; the first engine skips the walk over every metric.
  if (group_parts_width_ > 0) {
    for (auto& [name, e] : metrics_) {
      if (e.gauge) e.gauge->groups_.grow(groups);
      if (e.histogram) e.histogram->groups_.grow(groups);
    }
  }
  group_parts_width_ = groups;
  return groups;
}

std::string MetricsRegistry::snapshot_json() const {
  JsonWriter w;
  write_json(w);
  return w.take();
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  constexpr auto kInline = JsonWriter::Layout::kInline;
  const std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  for (const auto& [name, e] : metrics_) {
    w.key(name).begin_object(kInline);
    if (e.counter) {
      w.field("type", "counter").field("value", e.counter->value());
    } else if (e.gauge) {
      w.field("type", "gauge").field("value", e.gauge->value());
    } else {
      const Histogram& h = *e.histogram;
      const HistogramStats st = h.stats();
      w.field("type", "histogram").field("count", st.n);
      if (st.n > 0) {
        w.field("mean", st.mean()).field("min", st.min());
        w.field("max", st.max());
        for (const double q : Histogram::kExportQuantiles) {
          w.field(quantile_key(q), h.quantile(q));
        }
        w.key("buckets").begin_array(kInline);
        for (std::size_t i = 0; i <= h.buckets(); ++i) {
          if (h.bucket_count(i) == 0) continue;  // sparse: zeros add no info
          w.begin_array(kInline);
          if (i < h.buckets()) {
            w.value(h.bucket_upper_bound(i));
          } else {
            w.value("inf");
          }
          w.value(h.bucket_count(i));
          w.end_array();
        }
        w.end_array();
      }
    }
    w.end_object();
  }
  w.end_object();
}

// ---------------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------------

std::string report_json(const std::string& bench, const ReportParams& params,
                        const MetricsRegistry& metrics,
                        const prof::ProfileReport* prof) {
  JsonWriter w;
  w.begin_object();
  w.field("bench", bench).key("params").begin_object();
  for (const auto& [k, v] : params.values()) {
    std::visit([&w, &k](const auto& x) { w.field(k, x); }, v);
  }
  w.end_object();
  metrics.write_json(w.key("metrics"));
  if (prof != nullptr) prof->write_json(w.key("prof"));
  w.end_object();
  return w.take() + "\n";
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw UserError("cannot open for writing: " + path);
  out << content;
  out.flush();
  if (!out) throw UserError("write failed: " + path);
}

}  // namespace mantis::telemetry
