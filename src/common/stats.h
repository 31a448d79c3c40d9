#ifndef FELA_COMMON_STATS_H_
#define FELA_COMMON_STATS_H_

#include <cstddef>
#include <vector>

namespace fela::common {

/// Retains all samples; supports exact percentiles. Fine for the sample
/// counts in this project (hundreds of iterations).
class Samples {
 public:
  void Add(double x) { values_.push_back(x); }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;
  /// Exact percentile with linear interpolation, q in [0, 100].
  double Percentile(double q) const;
  double Median() const { return Percentile(50.0); }
  const std::vector<double>& values() const { return values_; }
  void Clear() { values_.clear(); }

 private:
  std::vector<double> values_;
};

/// Normalizes values to [0, 1] by (x - min) / (max - min), the scheme used
/// for the paper's Figure 6(a). Returns all zeros when max == min.
std::vector<double> NormalizeToUnit(const std::vector<double>& values);

}  // namespace fela::common

#endif  // FELA_COMMON_STATS_H_
