#ifndef FELA_TESTING_SPEC_GEN_H_
#define FELA_TESTING_SPEC_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "model/model.h"
#include "runtime/experiment.h"

namespace fela::testing {

/// Which engine a fuzz case drives. Covers all six engines the suite
/// exposes so every scheduler sees adversarial compositions, not just
/// the paths the hand-written tests thought of.
enum class EngineKind { kDp, kPsDp, kMp, kHp, kElasticMp, kFela };
inline constexpr int kNumEngineKinds = 6;

/// Workload model (the paper's two evaluation benchmarks).
enum class ModelKind { kVgg19, kGoogLeNet };

/// Straggler scenario shape; parameters live in FuzzSpec.
enum class StragglerKind {
  kNone,
  kRoundRobin,
  kProbability,
  kPersistent,
  kTransient,
  kHeterogeneous,
};

/// Fault scenario shape; parameters live in FuzzSpec.
enum class FaultKind {
  kNone,
  kScriptedCrash,
  kRandomCrashes,
  kLossyControl,
  kComposite,     // random crashes + lossy control plane
  kTsCrash,       // scripted crash of worker 0, the initial TS host
  kPartition,     // one scripted bipartition window
  kGrayFailure,   // one worker's control latency inflated for a window
};
inline constexpr int kNumFaultKinds = 8;

const char* EngineKindName(EngineKind k);
const char* ModelKindName(ModelKind k);
const char* StragglerKindName(StragglerKind k);
const char* FaultKindName(FaultKind k);

/// One randomly generated but *valid* experiment composition: workload,
/// cluster size, engine, straggler schedule, fault schedule, and (for
/// Fela) the engine configuration. Every field is plain data so a spec
/// round-trips through JSON — a shrunk failing spec is a replayable
/// repro file, not a transcript.
struct FuzzSpec {
  /// The generator seed this spec came from (0 for hand-built specs);
  /// carried for labels and repro files only.
  uint64_t seed = 0;

  EngineKind engine = EngineKind::kFela;
  ModelKind model = ModelKind::kVgg19;
  int num_workers = 8;
  double total_batch = 128.0;
  int iterations = 4;
  bool observe = false;

  StragglerKind straggler = StragglerKind::kNone;
  double straggler_delay_sec = 2.0;   // round-robin / probability / bursts
  double straggler_probability = 0.3; // kProbability
  int straggler_victim = 1;           // kPersistent / kHeterogeneous
  int straggler_burst = 3;            // kTransient
  double straggler_slowdown = 2.0;    // kHeterogeneous
  uint64_t straggler_seed = 1;

  FaultKind fault = FaultKind::kNone;
  double crash_time_sec = 0.5;        // kScriptedCrash / kTsCrash
  double recover_time_sec = 1.5;      // kScriptedCrash / kTsCrash
  int crash_worker = 1;               // kScriptedCrash (any node, 0 included)
  double crash_prob = 0.1;            // kRandomCrashes / kComposite
  double crash_window_sec = 2.0;      // kRandomCrashes / kComposite
  double crash_down_sec = 0.5;        // kRandomCrashes / kComposite
  /// kRandomCrashes / kComposite: spare worker 0 (the initial TS host)
  /// from the crash process. Both values are fuzzed — false exercises TS
  /// failover under random crashes; true is the regime where Fela must
  /// dominate the crash-oblivious baselines (the metamorphic twin).
  bool crash_spare_ts = true;
  double drop_prob = 0.02;            // kLossyControl / kComposite
  double dup_prob = 0.02;             // kLossyControl / kComposite
  double partition_start_sec = 1.0;   // kPartition
  double partition_dur_sec = 2.0;     // kPartition
  int partition_size = 1;             // kPartition: |side A| = {0..size-1}
  int gray_worker = 0;                // kGrayFailure
  double gray_start_sec = 0.5;        // kGrayFailure
  double gray_dur_sec = 2.0;          // kGrayFailure
  double gray_factor = 3.0;           // kGrayFailure: latency multiplier
  uint64_t fault_seed = 1;

  /// Fela knobs, used only when engine == kFela. Empty weights mean
  /// FelaConfig::Defaults; ctd_subset 0 means num_workers (CTD off).
  std::vector<int> fela_weights;
  int fela_ctd_subset = 0;
  bool fela_ads = true;
  bool fela_hf = true;

  /// Cluster topology: 0 = flat fabric; otherwise workers group into
  /// racks of this size (sim::Topology::Racked). Fuzzed so the
  /// hierarchical fabric and the rack-sharded Token Server see
  /// adversarial compositions too.
  int rack_size = 0;
  /// Token Server sub-distributor count (core::FelaConfig::ts_shards):
  /// 0 = one shard per rack (the default), otherwise explicit — the
  /// generator draws 1 (inert), the rack count, and odd non-divisors of
  /// the cluster size. Optional in repro JSON (default 0) so pre-shard
  /// repro files still parse.
  int fela_ts_shards = 0;
};

/// Derives a random-but-valid spec from `seed`. Same seed, same spec, on
/// every platform (all randomness flows through common::Rng). Fela
/// configurations are checked against ValidateConfig before being
/// emitted; generation never produces a spec an engine would reject.
FuzzSpec GenerateSpec(uint64_t seed);

/// The workload model a spec names.
model::Model ModelFor(const FuzzSpec& spec);

/// Number of sub-models the spec's workload bin-partitions into (what
/// FelaConfig weight vectors must match).
int NumSubModelsFor(const FuzzSpec& spec);

/// Factory builders: everything RunExperiment needs, derived from the
/// spec alone so a case can run on any sweep thread.
runtime::ExperimentSpec ToExperimentSpec(const FuzzSpec& spec);
runtime::EngineFactory MakeEngineFactory(const FuzzSpec& spec);
runtime::StragglerFactory MakeStragglerFactory(const FuzzSpec& spec);
runtime::FaultFactory MakeFaultFactory(const FuzzSpec& spec);

/// Re-establishes cross-field validity after an edit that changed
/// num_workers (the shrinker halves clusters): caps Fela weights at the
/// largest power of two <= num_workers, clamps the CTD subset into
/// [1, num_workers], and pulls crash/straggler victims back in range.
void ClampToCluster(FuzzSpec* spec);

/// Compact one-line description for fuzz output ("engine=Fela model=VGG19
/// workers=8 batch=128 it=4 stragglers=round-robin faults=composite").
std::string SpecLabel(const FuzzSpec& spec);

/// JSON round-trip (the shrunk-repro file format).
common::Json SpecToJson(const FuzzSpec& spec);
/// Rejects, with a message in `error`, a document an engine could not
/// run: a missing field, an integer field that is not an exact `int`,
/// fewer than two or more than sim::kMaxInputWorkers workers, fewer than
/// one iteration, a worker index outside the cluster, a schedule field
/// outside its sim/types.h range (whatever kind the spec selects), or
/// (for Fela) a configuration ValidateConfig refuses.
bool SpecFromJson(const common::Json& json, FuzzSpec* out, std::string* error);

}  // namespace fela::testing

#endif  // FELA_TESTING_SPEC_GEN_H_
