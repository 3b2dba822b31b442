// Batch statistics used by reactions (MAD over port counters), the benchmark
// harness (latency percentiles), and the evaluation code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mantis {

/// Batch sample container with percentile queries. Keeps all samples;
/// intended for benchmark-scale data (up to a few million points).
class Samples {
 public:
  void add(double x) {
    values_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { values_.reserve(n); }

  std::size_t count() const { return values_.size(); }
  double mean() const;
  /// Percentile by linear interpolation, q in [0, 100]. Throws when empty.
  double percentile(double q) const;
  double median() const { return percentile(50.0); }
  double min() const { return percentile(0.0); }
  double max() const { return percentile(100.0); }

  const std::vector<double>& values() const { return values_; }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void ensure_sorted() const;
};

/// Median of a span of values (copies; input untouched). Throws when empty.
double median_of(std::vector<double> values);

/// Median Absolute Deviation: median(|x_i - median(x)|). This is the
/// imbalance statistic the hash-polarization reaction computes (paper §8.3.3).
double median_absolute_deviation(const std::vector<double>& values);

}  // namespace mantis
