#include "testing/spec_gen.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/fela_config.h"
#include "model/cost_model.h"
#include "model/partition.h"
#include "model/zoo.h"
#include "sim/faults.h"
#include "sim/straggler.h"
#include "sim/topology.h"
#include "sim/types.h"
#include "suite/suite.h"

namespace fela::testing {

namespace {

/// Largest power of two <= n (n >= 1); the ceiling ValidateConfig puts
/// on any individual weight.
int MaxWeightFor(int n) {
  int w = 1;
  while (w * 2 <= n) w *= 2;
  return w;
}

/// Cluster sizes worth fuzzing: minimum viable, odd, non-power-of-two,
/// and the paper's 8/16-node configurations.
constexpr int kWorkerChoices[] = {2, 3, 4, 6, 8, 12, 16};
constexpr double kBatchChoices[] = {32.0, 64.0, 128.0, 256.0};

}  // namespace

const char* EngineKindName(EngineKind k) {
  switch (k) {
    case EngineKind::kDp: return "DP";
    case EngineKind::kPsDp: return "PS-DP";
    case EngineKind::kMp: return "MP";
    case EngineKind::kHp: return "HP";
    case EngineKind::kElasticMp: return "ElasticMP";
    case EngineKind::kFela: return "Fela";
  }
  return "?";
}

const char* ModelKindName(ModelKind k) {
  switch (k) {
    case ModelKind::kVgg19: return "VGG19";
    case ModelKind::kGoogLeNet: return "GoogLeNet";
  }
  return "?";
}

const char* StragglerKindName(StragglerKind k) {
  switch (k) {
    case StragglerKind::kNone: return "none";
    case StragglerKind::kRoundRobin: return "round-robin";
    case StragglerKind::kProbability: return "probability";
    case StragglerKind::kPersistent: return "persistent";
    case StragglerKind::kTransient: return "transient";
    case StragglerKind::kHeterogeneous: return "heterogeneous";
  }
  return "?";
}

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kNone: return "none";
    case FaultKind::kScriptedCrash: return "scripted-crash";
    case FaultKind::kRandomCrashes: return "random-crashes";
    case FaultKind::kLossyControl: return "lossy-control";
    case FaultKind::kComposite: return "composite";
    case FaultKind::kTsCrash: return "ts-crash";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kGrayFailure: return "gray-failure";
  }
  return "?";
}

FuzzSpec GenerateSpec(uint64_t seed) {
  common::Rng rng(seed ^ 0xfe1afe1a00000001ULL);
  FuzzSpec spec;
  spec.seed = seed;
  spec.engine = static_cast<EngineKind>(rng.UniformInt(kNumEngineKinds));
  spec.model = static_cast<ModelKind>(rng.UniformInt(2));
  spec.num_workers =
      kWorkerChoices[rng.UniformInt(std::size(kWorkerChoices))];
  spec.total_batch = kBatchChoices[rng.UniformInt(std::size(kBatchChoices))];
  spec.iterations = static_cast<int>(rng.UniformRange(2, 6));
  spec.observe = rng.Bernoulli(0.35);

  spec.straggler = static_cast<StragglerKind>(rng.UniformInt(6));
  spec.straggler_delay_sec = 0.5 * static_cast<double>(rng.UniformRange(1, 6));
  spec.straggler_probability =
      0.1 * static_cast<double>(rng.UniformRange(1, 5));
  spec.straggler_victim =
      static_cast<int>(rng.UniformInt(static_cast<uint64_t>(spec.num_workers)));
  spec.straggler_burst = static_cast<int>(rng.UniformRange(2, 5));
  spec.straggler_slowdown =
      1.5 + 0.5 * static_cast<double>(rng.UniformRange(0, 3));
  spec.straggler_seed = rng.Next();

  spec.fault = static_cast<FaultKind>(rng.UniformInt(kNumFaultKinds));
  // Any node may crash, including worker 0 — the initial Token Server
  // host fails over to a standby, so the generator no longer spares it.
  spec.crash_worker =
      static_cast<int>(rng.UniformInt(static_cast<uint64_t>(spec.num_workers)));
  spec.crash_time_sec = 0.2 * static_cast<double>(rng.UniformRange(1, 10));
  spec.recover_time_sec =
      spec.crash_time_sec + 0.2 * static_cast<double>(rng.UniformRange(1, 10));
  spec.crash_prob = 0.05 * static_cast<double>(rng.UniformRange(1, 4));
  spec.crash_window_sec = static_cast<double>(rng.UniformRange(1, 4));
  spec.crash_down_sec = 0.25 * static_cast<double>(rng.UniformRange(1, 6));
  spec.crash_spare_ts = rng.Bernoulli(0.5);
  spec.drop_prob = 0.01 * static_cast<double>(rng.UniformRange(0, 3));
  spec.dup_prob = 0.01 * static_cast<double>(rng.UniformRange(0, 3));
  spec.partition_start_sec =
      0.2 * static_cast<double>(rng.UniformRange(1, 10));
  spec.partition_dur_sec = 0.5 * static_cast<double>(rng.UniformRange(1, 8));
  spec.partition_size =
      1 + static_cast<int>(
              rng.UniformInt(static_cast<uint64_t>(spec.num_workers - 1)));
  spec.gray_worker =
      static_cast<int>(rng.UniformInt(static_cast<uint64_t>(spec.num_workers)));
  spec.gray_start_sec = 0.2 * static_cast<double>(rng.UniformRange(1, 10));
  spec.gray_dur_sec = 0.5 * static_cast<double>(rng.UniformRange(1, 8));
  spec.gray_factor = 1.5 + 0.5 * static_cast<double>(rng.UniformRange(0, 6));
  spec.fault_seed = rng.Next();

  // Fela configuration: random non-decreasing power-of-two weights under
  // the ValidateConfig ceiling, and a random CTD subset. Drawn for every
  // spec (not just Fela cases) so a shrink that flips the engine to Fela
  // still has a coherent config to carry.
  const int levels = NumSubModelsFor(spec);
  const int max_w = MaxWeightFor(spec.num_workers);
  spec.fela_weights.assign(static_cast<size_t>(levels), 1);
  for (int i = 1; i < levels; ++i) {
    const int prev = spec.fela_weights[static_cast<size_t>(i - 1)];
    spec.fela_weights[static_cast<size_t>(i)] =
        rng.Bernoulli(0.5) ? std::min(prev * 2, max_w) : prev;
  }
  spec.fela_ctd_subset =
      rng.Bernoulli(0.5)
          ? spec.num_workers
          : static_cast<int>(rng.UniformRange(1, spec.num_workers));
  spec.fela_ads = rng.Bernoulli(0.75);
  spec.fela_hf = rng.Bernoulli(0.75);

  // Belt and braces: anything the validator rejects falls back to the
  // known-good defaults rather than aborting the fuzz run.
  core::FelaConfig cfg;
  cfg.weights = spec.fela_weights;
  cfg.ctd_subset_size = spec.fela_ctd_subset;
  cfg.ads_enabled = spec.fela_ads;
  cfg.hf_enabled = spec.fela_hf;
  if (!core::ValidateConfig(cfg, levels, spec.num_workers).ok()) {
    const core::FelaConfig def =
        core::FelaConfig::Defaults(levels, spec.num_workers);
    spec.fela_weights = def.weights;
    spec.fela_ctd_subset = def.ctd_subset_size;
  }

  // Topology + Token Server sharding axis. Drawn after everything else
  // so the earlier fields of any given seed keep their historical
  // values (old repro seeds regenerate the same spec plus these).
  const int n = spec.num_workers;
  switch (rng.UniformInt(4)) {
    case 0:
    case 1: spec.rack_size = 0; break;            // flat, the common case
    case 2: spec.rack_size = std::min(4, n); break;
    default: spec.rack_size = std::max(2, n / 2); break;
  }
  if (spec.rack_size >= n) spec.rack_size = 0;  // one rack == flat
  switch (rng.UniformInt(4)) {
    case 0: spec.fela_ts_shards = 0; break;  // auto: one shard per rack
    case 1: spec.fela_ts_shards = 1; break;  // inert: single distributor
    case 2:                                  // explicit rack count
      spec.fela_ts_shards =
          spec.rack_size > 0 ? (n + spec.rack_size - 1) / spec.rack_size : 0;
      break;
    default: {
      // Smallest odd >= 3 that does not divide the cluster (ragged last
      // shard); clusters too small for one fall back to auto.
      int odd = 3;
      while (odd <= n && n % odd == 0) odd += 2;
      spec.fela_ts_shards = odd <= n ? odd : 0;
      break;
    }
  }
  return spec;
}

model::Model ModelFor(const FuzzSpec& spec) {
  return spec.model == ModelKind::kVgg19 ? model::zoo::Vgg19()
                                         : model::zoo::GoogLeNet();
}

int NumSubModelsFor(const FuzzSpec& spec) {
  const model::Model m = ModelFor(spec);
  return static_cast<int>(model::BinPartitioner()
                              .Partition(m, model::ProfileRepository::Default())
                              .size());
}

runtime::ExperimentSpec ToExperimentSpec(const FuzzSpec& spec) {
  runtime::ExperimentSpec out;
  out.total_batch = spec.total_batch;
  out.iterations = spec.iterations;
  out.num_workers = spec.num_workers;
  out.observe = spec.observe;
  if (spec.rack_size > 0) {
    out.calibration.topology = sim::Topology::Racked(
        spec.rack_size, /*uplink_bandwidth_bytes_per_sec=*/5e9,
        /*rack_hop_latency_sec=*/5e-6);
  }
  return out;
}

namespace {

/// The Fela configuration a spec's fields describe.
core::FelaConfig FelaConfigFor(const FuzzSpec& spec) {
  core::FelaConfig cfg =
      core::FelaConfig::Defaults(NumSubModelsFor(spec), spec.num_workers);
  if (!spec.fela_weights.empty()) cfg.weights = spec.fela_weights;
  if (spec.fela_ctd_subset > 0) cfg.ctd_subset_size = spec.fela_ctd_subset;
  cfg.ads_enabled = spec.fela_ads;
  cfg.hf_enabled = spec.fela_hf;
  cfg.ts_shards = spec.fela_ts_shards;
  return cfg;
}

}  // namespace

runtime::EngineFactory MakeEngineFactory(const FuzzSpec& spec) {
  const model::Model m = ModelFor(spec);
  switch (spec.engine) {
    case EngineKind::kDp: return suite::DpFactory(m);
    case EngineKind::kPsDp: return suite::PsDpFactory(m);
    case EngineKind::kMp: return suite::MpFactory(m);
    case EngineKind::kHp: return suite::HpFactory(m);
    case EngineKind::kElasticMp: return suite::ElasticMpFactory(m);
    case EngineKind::kFela: return suite::FelaFactory(m, FelaConfigFor(spec));
  }
  FELA_CHECK(false) << "unknown engine kind";
  return nullptr;
}

runtime::StragglerFactory MakeStragglerFactory(const FuzzSpec& spec) {
  const FuzzSpec s = spec;  // captured by value: outlives the caller
  return [s](int num_workers) -> std::unique_ptr<sim::StragglerSchedule> {
    switch (s.straggler) {
      case StragglerKind::kNone:
        return std::make_unique<sim::NoStragglers>();
      case StragglerKind::kRoundRobin:
        return std::make_unique<sim::RoundRobinStragglers>(
            num_workers, s.straggler_delay_sec);
      case StragglerKind::kProbability:
        return std::make_unique<sim::ProbabilityStragglers>(
            s.straggler_probability, s.straggler_delay_sec, s.straggler_seed);
      case StragglerKind::kPersistent:
        return std::make_unique<sim::PersistentStraggler>(
            std::min(s.straggler_victim, num_workers - 1),
            s.straggler_delay_sec);
      case StragglerKind::kTransient:
        return std::make_unique<sim::TransientStragglers>(
            num_workers, s.straggler_delay_sec, s.straggler_burst,
            s.straggler_seed);
      case StragglerKind::kHeterogeneous:
        return std::make_unique<sim::HeterogeneousWorker>(
            std::min(s.straggler_victim, num_workers - 1),
            s.straggler_slowdown);
    }
    return std::make_unique<sim::NoStragglers>();
  };
}

runtime::FaultFactory MakeFaultFactory(const FuzzSpec& spec) {
  const FuzzSpec s = spec;
  return [s](int num_workers) -> std::unique_ptr<sim::FaultSchedule> {
    switch (s.fault) {
      case FaultKind::kNone:
        return std::make_unique<sim::NoFaults>();
      case FaultKind::kScriptedCrash: {
        sim::CrashEvent e;
        e.worker = std::min(s.crash_worker, num_workers - 1);
        e.crash_time = s.crash_time_sec;
        e.recover_time = s.recover_time_sec;
        return std::make_unique<sim::ScriptedCrashes>(
            std::vector<sim::CrashEvent>{e});
      }
      case FaultKind::kRandomCrashes:
        return std::make_unique<sim::RandomCrashes>(
            num_workers, s.crash_prob, s.crash_window_sec, s.crash_down_sec,
            s.fault_seed, /*first_worker=*/s.crash_spare_ts ? 1 : 0);
      case FaultKind::kLossyControl:
        return std::make_unique<sim::LossyControlPlane>(s.drop_prob,
                                                        s.dup_prob,
                                                        s.fault_seed);
      case FaultKind::kComposite: {
        std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
        parts.push_back(std::make_unique<sim::RandomCrashes>(
            num_workers, s.crash_prob, s.crash_window_sec, s.crash_down_sec,
            s.fault_seed, /*first_worker=*/s.crash_spare_ts ? 1 : 0));
        parts.push_back(std::make_unique<sim::LossyControlPlane>(
            s.drop_prob, s.dup_prob, s.fault_seed ^ 0x10551055ULL));
        return std::make_unique<sim::CompositeFaults>(std::move(parts));
      }
      case FaultKind::kTsCrash: {
        // The initial Token Server host fail-recovers; Fela must fence,
        // fail over, and keep the run alive.
        sim::CrashEvent e;
        e.worker = 0;
        e.crash_time = s.crash_time_sec;
        e.recover_time = s.recover_time_sec;
        return std::make_unique<sim::ScriptedCrashes>(
            std::vector<sim::CrashEvent>{e});
      }
      case FaultKind::kPartition: {
        sim::PartitionEvent e;
        e.start = s.partition_start_sec;
        e.end = s.partition_start_sec + s.partition_dur_sec;
        const int size = std::clamp(s.partition_size, 1, num_workers - 1);
        for (int w = 0; w < size; ++w) e.side_a.push_back(w);
        return std::make_unique<sim::NetworkPartition>(
            std::vector<sim::PartitionEvent>{e});
      }
      case FaultKind::kGrayFailure: {
        sim::GrayEvent e;
        e.worker = std::min(s.gray_worker, num_workers - 1);
        e.start = s.gray_start_sec;
        e.end = s.gray_start_sec + s.gray_dur_sec;
        e.delay_factor = s.gray_factor;
        return std::make_unique<sim::GrayFailures>(
            std::vector<sim::GrayEvent>{e});
      }
    }
    return std::make_unique<sim::NoFaults>();
  };
}

void ClampToCluster(FuzzSpec* spec) {
  const int n = spec->num_workers;
  FELA_CHECK_GE(n, 2);
  const int max_w = MaxWeightFor(n);
  for (int& w : spec->fela_weights) w = std::min(w, max_w);
  if (spec->fela_ctd_subset > 0) {
    spec->fela_ctd_subset = std::clamp(spec->fela_ctd_subset, 1, n);
  }
  spec->crash_worker = std::clamp(spec->crash_worker, 0, n - 1);
  spec->straggler_victim = std::clamp(spec->straggler_victim, 0, n - 1);
  spec->partition_size = std::clamp(spec->partition_size, 1, n - 1);
  spec->gray_worker = std::clamp(spec->gray_worker, 0, n - 1);
  if (spec->rack_size >= n || spec->rack_size < 0) spec->rack_size = 0;
  spec->fela_ts_shards = std::clamp(spec->fela_ts_shards, 0, n);
}

std::string SpecLabel(const FuzzSpec& spec) {
  std::string label = common::StrFormat(
      "engine=%s model=%s workers=%d batch=%g it=%d stragglers=%s faults=%s%s",
      EngineKindName(spec.engine), ModelKindName(spec.model), spec.num_workers,
      spec.total_batch, spec.iterations, StragglerKindName(spec.straggler),
      FaultKindName(spec.fault), spec.observe ? " observed" : "");
  // Topology / sharding suffixes only when non-default, so flat
  // unsharded labels keep their historical bytes.
  if (spec.rack_size > 0) {
    label += common::StrFormat(" rack=%d", spec.rack_size);
  }
  if (spec.fela_ts_shards > 0) {
    label += common::StrFormat(" shards=%d", spec.fela_ts_shards);
  }
  return label;
}

common::Json SpecToJson(const FuzzSpec& spec) {
  common::Json doc = common::Json::Object();
  // uint64 seeds exceed double's 53-bit mantissa; serialize as decimal
  // strings so a repro replays with the exact seed bits.
  doc.Set("seed", std::to_string(spec.seed));
  doc.Set("engine", EngineKindName(spec.engine));
  doc.Set("model", ModelKindName(spec.model));
  doc.Set("num_workers", spec.num_workers);
  doc.Set("total_batch", spec.total_batch);
  doc.Set("iterations", spec.iterations);
  doc.Set("observe", spec.observe);
  doc.Set("rack_size", spec.rack_size);
  doc.Set("fela_ts_shards", spec.fela_ts_shards);
  doc.Set("straggler", StragglerKindName(spec.straggler));
  doc.Set("straggler_delay_sec", spec.straggler_delay_sec);
  doc.Set("straggler_probability", spec.straggler_probability);
  doc.Set("straggler_victim", spec.straggler_victim);
  doc.Set("straggler_burst", spec.straggler_burst);
  doc.Set("straggler_slowdown", spec.straggler_slowdown);
  doc.Set("straggler_seed", std::to_string(spec.straggler_seed));
  doc.Set("fault", FaultKindName(spec.fault));
  doc.Set("crash_time_sec", spec.crash_time_sec);
  doc.Set("recover_time_sec", spec.recover_time_sec);
  doc.Set("crash_worker", spec.crash_worker);
  doc.Set("crash_prob", spec.crash_prob);
  doc.Set("crash_window_sec", spec.crash_window_sec);
  doc.Set("crash_down_sec", spec.crash_down_sec);
  doc.Set("crash_spare_ts", spec.crash_spare_ts);
  doc.Set("drop_prob", spec.drop_prob);
  doc.Set("dup_prob", spec.dup_prob);
  doc.Set("partition_start_sec", spec.partition_start_sec);
  doc.Set("partition_dur_sec", spec.partition_dur_sec);
  doc.Set("partition_size", spec.partition_size);
  doc.Set("gray_worker", spec.gray_worker);
  doc.Set("gray_start_sec", spec.gray_start_sec);
  doc.Set("gray_dur_sec", spec.gray_dur_sec);
  doc.Set("gray_factor", spec.gray_factor);
  doc.Set("fault_seed", std::to_string(spec.fault_seed));
  common::Json weights = common::Json::Array();
  for (int w : spec.fela_weights) weights.Append(w);
  doc.Set("fela_weights", std::move(weights));
  doc.Set("fela_ctd_subset", spec.fela_ctd_subset);
  doc.Set("fela_ads", spec.fela_ads);
  doc.Set("fela_hf", spec.fela_hf);
  return doc;
}

namespace {

/// Maps a kind name back to its enum via the *Name functions, so the two
/// directions can never drift apart.
template <typename Enum>
bool KindFromName(const std::string& name, int count,
                  const char* (*name_fn)(Enum), Enum* out) {
  for (int i = 0; i < count; ++i) {
    const Enum k = static_cast<Enum>(i);
    if (name == name_fn(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

bool ReadNumber(const common::Json& doc, const char* key, double* out,
                std::string* error) {
  const common::Json* v = doc.Find(key);
  if (v == nullptr || !v->is_number()) {
    *error = common::StrFormat("missing or non-numeric field '%s'", key);
    return false;
  }
  *out = v->number_value();
  return true;
}

/// JSON numbers are doubles; casting one that is non-finite, fractional
/// or outside `int` to int is undefined or silently truncates.
bool ToInt(double value, const char* field, int* out, std::string* error) {
  constexpr double kMin = std::numeric_limits<int>::min();
  constexpr double kMax = std::numeric_limits<int>::max();
  if (!std::isfinite(value) || std::trunc(value) != value || value < kMin ||
      value > kMax) {
    *error = common::StrFormat("field '%s' is not an int: %.17g", field,
                               value);
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool ReadInt(const common::Json& doc, const char* key, int* out,
             std::string* error) {
  double value = 0.0;
  return ReadNumber(doc, key, &value, error) &&
         ToInt(value, key, out, error);
}

/// A worker index: an int in [0, num_workers).
bool ReadWorker(const common::Json& doc, const char* key, int num_workers,
                int* out, std::string* error) {
  if (!ReadInt(doc, key, out, error)) return false;
  if (*out < 0 || *out >= num_workers) {
    *error = common::StrFormat("field '%s' = %d is not a worker of %d", key,
                               *out, num_workers);
    return false;
  }
  return true;
}

bool ReadString(const common::Json& doc, const char* key, std::string* out,
                std::string* error) {
  const common::Json* v = doc.Find(key);
  if (v == nullptr || !v->is_string()) {
    *error = common::StrFormat("missing or non-string field '%s'", key);
    return false;
  }
  *out = v->string_value();
  return true;
}

bool ReadBool(const common::Json& doc, const char* key, bool* out,
              std::string* error) {
  const common::Json* v = doc.Find(key);
  if (v == nullptr || !v->is_bool()) {
    *error = common::StrFormat("missing or non-bool field '%s'", key);
    return false;
  }
  *out = v->bool_value();
  return true;
}

/// Seeds are decimal strings (doubles would truncate 64-bit seeds); a
/// plain number is accepted for hand-written specs with small seeds.
bool ReadSeed(const common::Json& doc, const char* key, uint64_t* out,
              std::string* error) {
  const common::Json* v = doc.Find(key);
  if (v != nullptr && v->is_number()) {
    // Doubles hold every integer only up to 2^53.
    const double n = v->number_value();
    if (!(n >= 0.0 && n <= 0x1p53) || std::trunc(n) != n) {
      *error = common::StrFormat("seed field '%s' is not a decimal string "
                                 "or an integer in [0, 2^53]: %.17g",
                                 key, n);
      return false;
    }
    *out = static_cast<uint64_t>(n);
    return true;
  }
  if (v == nullptr || !v->is_string() || v->string_value().empty()) {
    *error = common::StrFormat("missing or malformed seed field '%s'", key);
    return false;
  }
  uint64_t value = 0;
  for (char c : v->string_value()) {
    if (c < '0' || c > '9') {
      *error = common::StrFormat("non-decimal seed field '%s'", key);
      return false;
    }
    const auto digit = static_cast<uint64_t>(c - '0');
    if (value > (std::numeric_limits<uint64_t>::max() - digit) / 10) {
      *error = common::StrFormat("seed field '%s' exceeds 64 bits", key);
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

}  // namespace

bool SpecFromJson(const common::Json& json, FuzzSpec* out,
                  std::string* error) {
  if (!json.is_object()) {
    *error = "spec document is not a JSON object";
    return false;
  }
  FuzzSpec spec;
  std::string str;

  if (!ReadSeed(json, "seed", &spec.seed, error)) return false;
  if (!ReadString(json, "engine", &str, error)) return false;
  if (!KindFromName(str, kNumEngineKinds, &EngineKindName, &spec.engine)) {
    *error = "unknown engine kind: " + str;
    return false;
  }
  if (!ReadString(json, "model", &str, error)) return false;
  if (!KindFromName(str, 2, &ModelKindName, &spec.model)) {
    *error = "unknown model kind: " + str;
    return false;
  }
  // Two workers is the fuzzer's floor: the generator, the shrinker
  // (ClampToCluster) and the HP baseline all assume at least two.
  if (!ReadInt(json, "num_workers", &spec.num_workers, error)) return false;
  if (spec.num_workers < 2 || spec.num_workers > sim::kMaxInputWorkers) {
    *error = common::StrFormat("num_workers %d outside [2, %d]",
                               spec.num_workers, sim::kMaxInputWorkers);
    return false;
  }
  if (!ReadNumber(json, "total_batch", &spec.total_batch, error)) return false;
  if (!sim::IsTotalBatch(spec.total_batch)) {
    *error = common::StrFormat("total_batch %.17g outside (0, %.17g]",
                               spec.total_batch, sim::kMaxInputBatch);
    return false;
  }
  if (!ReadInt(json, "iterations", &spec.iterations, error)) return false;
  if (spec.iterations < 1) {
    *error = common::StrFormat("iterations %d < 1", spec.iterations);
    return false;
  }
  if (!ReadBool(json, "observe", &spec.observe, error)) return false;

  if (!ReadString(json, "straggler", &str, error)) return false;
  if (!KindFromName(str, 6, &StragglerKindName, &spec.straggler)) {
    *error = "unknown straggler kind: " + str;
    return false;
  }
  if (!ReadNumber(json, "straggler_delay_sec", &spec.straggler_delay_sec,
                  error) ||
      !ReadNumber(json, "straggler_probability", &spec.straggler_probability,
                  error)) {
    return false;
  }
  if (!ReadWorker(json, "straggler_victim", spec.num_workers,
                  &spec.straggler_victim, error) ||
      !ReadInt(json, "straggler_burst", &spec.straggler_burst, error)) {
    return false;
  }
  if (spec.straggler_burst < 1) {
    *error = common::StrFormat("straggler_burst %d < 1", spec.straggler_burst);
    return false;
  }
  if (!ReadNumber(json, "straggler_slowdown", &spec.straggler_slowdown,
                  error)) {
    return false;
  }
  if (!ReadSeed(json, "straggler_seed", &spec.straggler_seed, error)) {
    return false;
  }

  if (!ReadString(json, "fault", &str, error)) return false;
  if (!KindFromName(str, kNumFaultKinds, &FaultKindName, &spec.fault)) {
    *error = "unknown fault kind: " + str;
    return false;
  }
  if (!ReadNumber(json, "crash_time_sec", &spec.crash_time_sec, error) ||
      !ReadNumber(json, "recover_time_sec", &spec.recover_time_sec, error)) {
    return false;
  }
  if (!ReadWorker(json, "crash_worker", spec.num_workers, &spec.crash_worker,
                  error)) {
    return false;
  }
  if (!ReadNumber(json, "crash_prob", &spec.crash_prob, error) ||
      !ReadNumber(json, "crash_window_sec", &spec.crash_window_sec, error) ||
      !ReadNumber(json, "crash_down_sec", &spec.crash_down_sec, error) ||
      !ReadNumber(json, "drop_prob", &spec.drop_prob, error) ||
      !ReadNumber(json, "dup_prob", &spec.dup_prob, error)) {
    return false;
  }
  if (!ReadBool(json, "crash_spare_ts", &spec.crash_spare_ts, error)) {
    return false;
  }
  if (!ReadNumber(json, "partition_start_sec", &spec.partition_start_sec,
                  error) ||
      !ReadNumber(json, "partition_dur_sec", &spec.partition_dur_sec,
                  error)) {
    return false;
  }
  if (!ReadInt(json, "partition_size", &spec.partition_size, error) ||
      !ReadWorker(json, "gray_worker", spec.num_workers, &spec.gray_worker,
                  error)) {
    return false;
  }
  if (!ReadNumber(json, "gray_start_sec", &spec.gray_start_sec, error) ||
      !ReadNumber(json, "gray_dur_sec", &spec.gray_dur_sec, error) ||
      !ReadNumber(json, "gray_factor", &spec.gray_factor, error)) {
    return false;
  }
  if (!ReadSeed(json, "fault_seed", &spec.fault_seed, error)) return false;

  // The ranges the straggler and fault schedules' constructors check,
  // whatever kinds the spec selects; window ends are computed as
  // MakeFaultFactory computes them.
  const struct { const char* fields; bool ok; } ranges[] = {
      {"straggler_delay_sec", sim::IsDelay(spec.straggler_delay_sec)},
      {"straggler_probability",
       sim::IsProbability(spec.straggler_probability)},
      {"straggler_slowdown", sim::IsSlowdown(spec.straggler_slowdown)},
      {"crash_time_sec, recover_time_sec",
       sim::IsWindow(spec.crash_time_sec, spec.recover_time_sec)},
      {"crash_prob", sim::IsProbability(spec.crash_prob)},
      {"crash_window_sec", sim::IsDuration(spec.crash_window_sec)},
      {"crash_down_sec", sim::IsDuration(spec.crash_down_sec)},
      {"drop_prob", sim::IsDropProbability(spec.drop_prob)},
      {"dup_prob", sim::IsProbability(spec.dup_prob)},
      {"partition_start_sec, partition_dur_sec",
       sim::IsWindow(spec.partition_start_sec,
                     spec.partition_start_sec + spec.partition_dur_sec)},
      {"gray_start_sec, gray_dur_sec",
       sim::IsWindow(spec.gray_start_sec,
                     spec.gray_start_sec + spec.gray_dur_sec)},
      {"gray_factor", sim::IsSlowdown(spec.gray_factor)},
  };
  for (const auto& r : ranges) {
    if (!r.ok) {
      *error = common::StrFormat("field(s) %s out of range", r.fields);
      return false;
    }
  }

  const common::Json* weights = json.Find("fela_weights");
  if (weights == nullptr || !weights->is_array()) {
    *error = "missing or non-array field 'fela_weights'";
    return false;
  }
  spec.fela_weights.clear();
  for (const common::Json& w : weights->items()) {
    if (!w.is_number()) {
      *error = "non-numeric weight in 'fela_weights'";
      return false;
    }
    int weight = 0;
    if (!ToInt(w.number_value(), "fela_weights", &weight, error)) return false;
    spec.fela_weights.push_back(weight);
  }
  if (!ReadInt(json, "fela_ctd_subset", &spec.fela_ctd_subset, error)) {
    return false;
  }
  if (!ReadBool(json, "fela_ads", &spec.fela_ads, error) ||
      !ReadBool(json, "fela_hf", &spec.fela_hf, error)) {
    return false;
  }

  // Topology / sharding fields postdate the format: optional with their
  // flat-unsharded defaults so pre-shard repro files still replay.
  if (json.Find("rack_size") != nullptr &&
      !ReadInt(json, "rack_size", &spec.rack_size, error)) {
    return false;
  }
  if (json.Find("fela_ts_shards") != nullptr &&
      !ReadInt(json, "fela_ts_shards", &spec.fela_ts_shards, error)) {
    return false;
  }

  if (spec.engine == EngineKind::kFela) {
    const common::Status valid = core::ValidateConfig(
        FelaConfigFor(spec), NumSubModelsFor(spec), spec.num_workers);
    if (!valid.ok()) {
      *error = "invalid Fela config: " + valid.message();
      return false;
    }
  }

  *out = std::move(spec);
  return true;
}

}  // namespace fela::testing
