#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace mantis {

void Samples::ensure_sorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::mean() const {
  expects(!values_.empty(), "Samples::mean: no samples");
  double total = 0;
  for (double v : values_) total += v;
  return total / static_cast<double>(values_.size());
}

double Samples::percentile(double q) const {
  expects(!values_.empty(), "Samples::percentile: no samples");
  expects(q >= 0.0 && q <= 100.0, "Samples::percentile: q out of [0,100]");
  ensure_sorted();
  if (values_.size() == 1) return values_.front();
  const double pos = q / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double median_of(std::vector<double> values) {
  expects(!values.empty(), "median_of: no samples");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double m = values[mid];
  if (values.size() % 2 == 0) {
    const auto lower =
        *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
    m = (m + lower) / 2.0;
  }
  return m;
}

double median_absolute_deviation(const std::vector<double>& values) {
  const double med = median_of(values);
  std::vector<double> deviations;
  deviations.reserve(values.size());
  for (double v : values) deviations.push_back(std::abs(v - med));
  return median_of(std::move(deviations));
}

}  // namespace mantis
