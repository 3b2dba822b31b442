#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/check.hpp"

namespace mantis::telemetry {

namespace {

/// Shortest round-trippable rendering; integers print without a fraction.
std::string fmt_double(double v) {
  if (std::isnan(v) || std::isinf(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Trim to the shortest form that still round-trips.
  for (int prec = 1; prec < 17; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof(probe), "%.*g", prec, v);
    if (std::strtod(probe, nullptr) == v) return probe;
  }
  return buf;
}

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
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(HistogramOptions opts) : opts_(std::move(opts)) {
  expects(opts_.first_bucket > 0, "Histogram: first bucket must be positive");
  expects(opts_.growth > 1.0, "Histogram: growth must exceed 1");
  expects(opts_.buckets > 0, "Histogram: need at least one bucket");
  bounds_.reserve(opts_.buckets);
  double b = opts_.first_bucket;
  for (std::size_t i = 0; i < opts_.buckets; ++i) {
    bounds_.push_back(b);
    b *= opts_.growth;
  }
  counts_.assign(bounds_.size() + 1, 0);
  quantiles_.reserve(opts_.quantiles.size());
  for (const double q : opts_.quantiles) quantiles_.emplace_back(q);
}

void Histogram::record_direct(double v) {
  ++total_;
  stats_.add(v);
  for (auto& est : quantiles_) est.add(v);
  if (opts_.keep_raw) raw_.add(v);
  // Geometric bounds: the first bucket >= v is found directly.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
}

double Histogram::quantile(double q) const {
  expects(total_ > 0, "Histogram::quantile: no samples");
  if (opts_.keep_raw) return raw_.percentile(q * 100.0);
  for (const auto& est : quantiles_) {
    if (est.q() == q) return est.value();
  }
  throw UserError("Histogram::quantile: q=" + std::to_string(q) +
                  " not tracked (configure it in HistogramOptions)");
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
    e.histogram = std::make_unique<Histogram>(std::move(opts));
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

std::string MetricsRegistry::snapshot_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [name, e] : metrics_) {
    if (!first) out << ",";
    first = false;
    out << "\n  \"" << json_escape(name) << "\": ";
    if (e.counter) {
      out << "{\"type\": \"counter\", \"value\": " << e.counter->value() << "}";
    } else if (e.gauge) {
      out << "{\"type\": \"gauge\", \"value\": " << fmt_double(e.gauge->value())
          << "}";
    } else {
      const Histogram& h = *e.histogram;
      out << "{\"type\": \"histogram\", \"count\": " << h.count();
      if (h.count() > 0) {
        out << ", \"mean\": " << fmt_double(h.stats().mean())
            << ", \"min\": " << fmt_double(h.stats().min())
            << ", \"max\": " << fmt_double(h.stats().max());
        for (const double q : h.tracked_quantiles()) {
          out << ", \"" << quantile_key(q)
              << "\": " << fmt_double(h.quantile(q));
        }
        out << ", \"buckets\": [";
        bool bfirst = true;
        for (std::size_t i = 0; i <= h.buckets(); ++i) {
          if (h.bucket_count(i) == 0) continue;  // sparse: zeros add no info
          if (!bfirst) out << ", ";
          bfirst = false;
          out << "[";
          if (i < h.buckets()) {
            out << fmt_double(h.bucket_upper_bound(i));
          } else {
            out << "\"inf\"";
          }
          out << ", " << h.bucket_count(i) << "]";
        }
        out << "]";
      }
      out << "}";
    }
  }
  out << "\n}";
  return out.str();
}

// ---------------------------------------------------------------------------
// Report schema
// ---------------------------------------------------------------------------

void ReportParams::set(const std::string& key, const std::string& value) {
  kv_.emplace_back(key, "\"" + json_escape(value) + "\"");
}

void ReportParams::set(const std::string& key, std::int64_t value) {
  kv_.emplace_back(key, std::to_string(value));
}

void ReportParams::set(const std::string& key, double value) {
  kv_.emplace_back(key, fmt_double(value));
}

std::string report_json(const std::string& bench, const ReportParams& params,
                        const MetricsRegistry& metrics) {
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << json_escape(bench) << "\",\n  \"params\": {";
  bool first = true;
  for (const auto& [k, v] : params.raw()) {
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << json_escape(k) << "\": " << v;
  }
  out << (params.raw().empty() ? "" : "\n  ") << "},\n  \"metrics\": ";
  // Indent the nested snapshot to keep the file readable.
  const std::string snap = metrics.snapshot_json();
  for (const char c : snap) {
    out << c;
    if (c == '\n') out << "  ";
  }
  out << "\n}\n";
  return out.str();
}

std::string report_json(const std::string& bench, const ReportParams& params,
                        const MetricsRegistry& metrics,
                        const std::string& prof_json) {
  if (prof_json.empty()) return report_json(bench, params, metrics);
  std::string base = report_json(bench, params, metrics);
  // Splice a "prof" section (a pre-rendered JSON object) before the closing
  // brace, indenting it one level.
  const auto close = base.rfind("\n}\n");
  expects(close != std::string::npos, "report_json: malformed base report");
  std::ostringstream out;
  out << base.substr(0, close) << ",\n  \"prof\": ";
  std::string trimmed = prof_json;
  while (!trimmed.empty() && (trimmed.back() == '\n' || trimmed.back() == ' ')) {
    trimmed.pop_back();
  }
  for (const char c : trimmed) {
    out << c;
    if (c == '\n') out << "  ";
  }
  out << "\n}\n";
  return out.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw UserError("cannot open for writing: " + path);
  out << content;
  out.flush();
  if (!out) throw UserError("write failed: " + path);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace mantis::telemetry
