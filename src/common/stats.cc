#include "common/stats.h"

#include <algorithm>

#include "common/logging.h"

namespace fela::common {

double Samples::Sum() const {
  double s = 0.0;
  for (double v : values_) s += v;
  return s;
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Min() const {
  FELA_CHECK(!values_.empty());
  return *std::min_element(values_.begin(), values_.end());
}

double Samples::Max() const {
  FELA_CHECK(!values_.empty());
  return *std::max_element(values_.begin(), values_.end());
}

double Samples::Percentile(double q) const {
  FELA_CHECK(!values_.empty());
  FELA_CHECK(q >= 0.0 && q <= 100.0) << q;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> NormalizeToUnit(const std::vector<double>& values) {
  if (values.empty()) return {};
  const double mn = *std::min_element(values.begin(), values.end());
  const double mx = *std::max_element(values.begin(), values.end());
  std::vector<double> out(values.size(), 0.0);
  if (mx == mn) return out;
  for (size_t i = 0; i < values.size(); ++i) {
    out[i] = (values[i] - mn) / (mx - mn);
  }
  return out;
}

}  // namespace fela::common
