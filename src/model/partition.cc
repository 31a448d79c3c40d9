#include "model/partition.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace fela::model {

std::string SubModel::ToString() const {
  return common::StrFormat(
      "SM-%d[L%d..L%d] thr=%g params=%.2fM flops=%.3fG%s", index + 1,
      first_layer + 1, last_layer + 1, threshold_batch, params / 1e6,
      flops_per_sample / 1e9, communication_intensive ? " comm-intensive" : "");
}

BinPartitioner::BinPartitioner(double bin_size) : bin_size_(bin_size) {
  FELA_CHECK_GT(bin_size, 0.0);
}

int BinPartitioner::BinOf(double threshold) const {
  FELA_CHECK_GE(threshold, 0.0);
  return static_cast<int>(std::floor(threshold / bin_size_));
}

std::vector<SubModel> BinPartitioner::Partition(
    const Model& model, const ProfileRepository& repo) const {
  std::vector<std::pair<int, int>> ranges;
  int start = 0;
  int current_bin = BinOf(repo.ThresholdFor(model.layer(0)));
  for (int i = 1; i < model.layer_count(); ++i) {
    const int bin = BinOf(repo.ThresholdFor(model.layer(i)));
    if (bin != current_bin) {
      ranges.emplace_back(start, i - 1);
      start = i;
      current_bin = bin;
    }
  }
  ranges.emplace_back(start, model.layer_count() - 1);

  auto sub_models = SubModelsForRanges(model, repo, ranges);
  // Representative threshold: the lower edge of the group's bin (e.g.
  // [32,48) -> 32), giving the clean 16/32/... values of §III-B.
  for (auto& sm : sub_models) {
    const double thr = repo.ThresholdFor(model.layer(sm.first_layer));
    sm.threshold_batch =
        std::max(1.0, std::floor(thr / bin_size_) * bin_size_);
  }
  return sub_models;
}

std::vector<SubModel> SubModelsForRanges(
    const Model& model, const ProfileRepository& repo,
    const std::vector<std::pair<int, int>>& ranges) {
  FELA_CHECK(!ranges.empty());
  FELA_CHECK_EQ(ranges.front().first, 0);
  FELA_CHECK_EQ(ranges.back().second, model.layer_count() - 1);
  std::vector<SubModel> out;
  out.reserve(ranges.size());
  for (size_t r = 0; r < ranges.size(); ++r) {
    const auto [lo, hi] = ranges[r];
    if (r > 0) FELA_CHECK_EQ(lo, ranges[r - 1].second + 1);
    SubModel sm;
    sm.index = static_cast<int>(r);
    sm.first_layer = lo;
    sm.last_layer = hi;
    // Default representative threshold: max within the group (callers may
    // override, as BinPartitioner does with the bin edge).
    double thr = 0.0;
    bool comm = false;
    for (int i = lo; i <= hi; ++i) {
      thr = std::max(thr, repo.ThresholdFor(model.layer(i)));
      comm = comm || model.layer(i).IsCommunicationIntensive();
    }
    sm.threshold_batch = thr;
    sm.communication_intensive = comm;
    sm.params = model.ParamsInRange(lo, hi);
    sm.flops_per_sample = model.FlopsPerSampleInRange(lo, hi);
    sm.input_boundary_elems = model.BoundaryActivationElems(lo);
    sm.output_boundary_elems =
        model.layer(hi).OutputActivationElems();
    out.push_back(sm);
  }
  return out;
}

std::vector<std::pair<int, int>> EqualLayerCountPartition(const Model& model,
                                                          int num_stages) {
  FELA_CHECK_GT(num_stages, 0);
  FELA_CHECK_LE(num_stages, model.layer_count());
  const int n = model.layer_count();
  std::vector<std::pair<int, int>> ranges;
  int start = 0;
  for (int s = 0; s < num_stages; ++s) {
    // Distribute remainder layers over the front stages.
    const int size = n / num_stages + (s < n % num_stages ? 1 : 0);
    ranges.emplace_back(start, start + size - 1);
    start += size;
  }
  FELA_CHECK_EQ(start, n);
  return ranges;
}

}  // namespace fela::model
