#ifndef FELA_MODEL_MODEL_H_
#define FELA_MODEL_MODEL_H_

#include <string>
#include <vector>

#include "model/layer.h"

namespace fela::model {

/// A sequential training model: an ordered list of layers. (All models in
/// the paper — VGG19 and a coarsened GoogLeNet — are trained as sequential
/// chains; inception modules are aggregate layers.)
class Model {
 public:
  Model(std::string name, std::vector<Layer> layers);

  const std::string& name() const { return name_; }
  const std::vector<Layer>& layers() const { return layers_; }
  const Layer& layer(int i) const { return layers_[static_cast<size_t>(i)]; }
  int layer_count() const { return static_cast<int>(layers_.size()); }

  /// Number of weighted layers (CONV/FC/inception; pooling excluded),
  /// the counting convention behind Table I.
  int WeightedLayerCount() const;

  /// Publication metadata for the Table I reproduction.
  int year() const { return year_; }
  void set_year(int year) { year_ = year; }
  /// Layer count as published (may exceed WeightedLayerCount for models
  /// we deliberately coarsen, e.g. GoogLeNet's 22 vs 12 training units).
  int published_layer_count() const { return published_layer_count_; }
  void set_published_layer_count(int n) { published_layer_count_ = n; }

  /// Input sample element count (C*H*W) fed to layer 0.
  double input_elems_per_sample() const { return input_elems_; }
  void set_input_elems_per_sample(double elems) { input_elems_ = elems; }

  // -- Aggregates over [lo, hi] inclusive layer ranges ---------------------
  double ParamsInRange(int lo, int hi) const;
  double FlopsPerSampleInRange(int lo, int hi) const;
  double ActivationElemsInRange(int lo, int hi) const;

  double TotalParams() const { return ParamsInRange(0, layer_count() - 1); }
  double TotalFlopsPerSample() const {
    return FlopsPerSampleInRange(0, layer_count() - 1);
  }

  /// Activation elements per sample crossing the boundary *into* layer
  /// `layer_index` (output of the previous layer, or the raw input for
  /// layer 0). This is what model-parallel cuts must transfer.
  double BoundaryActivationElems(int layer_index) const;

  /// One line per layer: index, kind, shape, params, flops.
  std::string Describe() const;

 private:
  void CheckRange(int lo, int hi) const;

  std::string name_;
  std::vector<Layer> layers_;
  int year_ = 0;
  int published_layer_count_ = 0;
  double input_elems_ = 0.0;
};

}  // namespace fela::model

#endif  // FELA_MODEL_MODEL_H_
