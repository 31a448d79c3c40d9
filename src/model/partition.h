#ifndef FELA_MODEL_PARTITION_H_
#define FELA_MODEL_PARTITION_H_

#include <string>
#include <vector>

#include "model/model.h"
#include "model/profile.h"

namespace fela::model {

/// A contiguous slice of the model trained as one unit; the object tokens
/// refer to ("one token represents training one sub-model with a certain
/// batch size", §III-A).
struct SubModel {
  int index = 0;
  int first_layer = 0;  // inclusive
  int last_layer = 0;   // inclusive
  /// Representative threshold batch (lower edge of the partition bin).
  double threshold_batch = 0.0;
  double params = 0.0;
  double flops_per_sample = 0.0;
  /// Activation elements per sample entering / leaving the sub-model.
  double input_boundary_elems = 0.0;
  double output_boundary_elems = 0.0;
  /// True when the slice contains FC layers (sync-heavy; CTD target).
  bool communication_intensive = false;

  int layer_count() const { return last_layer - first_layer + 1; }
  std::string ToString() const;
};

/// The paper's offline *bin-partitioned method* (§IV-A): resolve each
/// layer's threshold batch size, map it to a bin of width `bin_size`
/// ([0,16), [16,32), ...), and group maximal runs of consecutive layers
/// sharing a bin into sub-models. With the calibrated VGG19 profile and
/// bin size 16 this yields exactly the paper's {L1-8, L9-16, L17-19}.
class BinPartitioner {
 public:
  explicit BinPartitioner(double bin_size = 16.0);

  /// Bin index for a threshold value.
  int BinOf(double threshold) const;

  std::vector<SubModel> Partition(const Model& model,
                                  const ProfileRepository& repo) const;

  double bin_size() const { return bin_size_; }

 private:
  double bin_size_;
};

/// Splits a model into `num_stages` contiguous stages with approximately
/// equal *layer counts* — the naive pipeline partition of the paper's MP
/// baseline ("model partition can be hardly balanced", §I); the FLOP
/// imbalance across stages is part of what the paper measures against.
std::vector<std::pair<int, int>> EqualLayerCountPartition(const Model& model,
                                                          int num_stages);

/// Builds SubModel records for an explicit list of inclusive layer ranges
/// (user-defined partition schemes, §III-B: "the partition scheme can be
/// user-defined").
std::vector<SubModel> SubModelsForRanges(
    const Model& model, const ProfileRepository& repo,
    const std::vector<std::pair<int, int>>& ranges);

}  // namespace fela::model

#endif  // FELA_MODEL_PARTITION_H_
