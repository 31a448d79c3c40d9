#include "workloads.h"

#include <memory>
#include <random>
#include <utility>

#include "common/units.h"
#include "core/fela_engine.h"
#include "model/zoo.h"
#include "sim/faults.h"
#include "sim/straggler.h"
#include "sim/topology.h"
#include "suite/suite.h"

namespace fela::perfbench {
namespace {

/// Samples each worker trains per iteration in the racked workloads
/// (weak scaling, as in bench_scale_workers).
constexpr double kSamplesPerWorker = 16.0;

sim::Topology Racked(int rack_size) {
  return sim::Topology::Racked(rack_size, common::GbpsToBytesPerSec(40.0),
                               5e-6);
}

/// Fela on an explicit partition, so the partition is timed once as
/// model.partition and engine construction excludes it.
runtime::EngineFactory FelaOn(const model::Model& model,
                              const std::vector<model::SubModel>& sub_models,
                              const core::FelaConfig& config) {
  return [model, sub_models, config](runtime::Cluster& cluster,
                                     double total_batch) {
    return std::make_unique<core::FelaEngine>(&cluster, model, sub_models,
                                              config, total_batch);
  };
}

// scale_1024: the ROADMAP's scale point. One fault-free, unobserved Fela
// job; the Token Server's grant path does most of the work.
void Scale1024(Pass& pass, uint64_t /*seed*/, bool tiny) {
  const int workers = tiny ? 64 : 1024;
  const model::Model model = pass.BuildModel(model::zoo::Vgg19);
  const std::vector<model::SubModel> sub_models = pass.Partition(model);
  runtime::ExperimentSpec spec;
  spec.total_batch = kSamplesPerWorker * workers;
  spec.iterations = tiny ? 2 : 20;
  spec.num_workers = workers;
  spec.calibration.topology = Racked(32);
  pass.Run(spec,
           FelaOn(model, sub_models,
                  core::FelaConfig::Defaults(
                      static_cast<int>(sub_models.size()), workers)),
           runtime::NoStragglerFactory());
}

// paper_stragglers: the Fig. 9 round-robin sweep on the paper's 8-worker
// star. Each point tunes Fela in situ with the stragglers present, then
// runs DP, MP, HP and tuned Fela with and without them.
constexpr int kPaperCases = 2;
int PaperPoints(bool tiny) { return tiny ? 1 : 5; }

void PaperStragglers(Pass& pass, uint64_t /*seed*/, bool tiny) {
  constexpr int kWorkers = 8;
  struct Case {
    model::Model (*build)();
    double batch;
    double delays[5];
  };
  const Case cases[kPaperCases] = {
      {model::zoo::Vgg19, 512, {2, 4, 6, 8, 10}},
      {model::zoo::GoogLeNet, 2048, {1, 2, 3, 4, 5}},
  };
  for (const Case& c : cases) {
    const model::Model model = pass.BuildModel(c.build);
    const std::vector<model::SubModel> sub_models = pass.Partition(model);
    for (int i = 0; i < PaperPoints(tiny); ++i) {
      const double d = c.delays[i];
      const runtime::StragglerFactory stragglers = [d](int n) {
        return std::make_unique<sim::RoundRobinStragglers>(n, d);
      };
      runtime::ExperimentSpec spec;
      spec.total_batch = c.batch;
      spec.iterations = tiny ? 3 : 100;
      spec.num_workers = kWorkers;
      const core::FelaConfig config = pass.Tune(
          model, sub_models, c.batch, kWorkers, tiny ? 1 : 5, stragglers);
      pass.RunPid(spec, suite::DpFactory(model), stragglers);
      pass.RunPid(spec, suite::MpFactory(model), stragglers);
      pass.RunPid(spec, suite::HpFactory(model), stragglers);
      pass.RunPid(spec, FelaOn(model, sub_models, config), stragglers);
    }
  }
}

/// The seeded composite fault schedule of observed_chaos. DrawChaos picks
/// its times as fractions of a horizon, the run's expected simulated
/// length.
struct ChaosPlan {
  sim::CrashEvent ts_crash;
  sim::CrashEvent fail_stop;
  sim::PartitionEvent partition;
  sim::GrayEvent gray;
  uint64_t lossy_seed = 0;

  std::unique_ptr<sim::FaultSchedule> Build() const {
    std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
    parts.push_back(std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{ts_crash, fail_stop}));
    parts.push_back(std::make_unique<sim::NetworkPartition>(
        std::vector<sim::PartitionEvent>{partition}));
    parts.push_back(std::make_unique<sim::GrayFailures>(
        std::vector<sim::GrayEvent>{gray}));
    parts.push_back(
        std::make_unique<sim::LossyControlPlane>(0.01, 0.01, lossy_seed));
    return std::make_unique<sim::CompositeFaults>(std::move(parts));
  }
};

ChaosPlan DrawChaos(uint64_t seed, int workers, int rack_size,
                    double horizon) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  auto pick = [&](int lo, int hi) {  // inclusive
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  ChaosPlan plan;
  // Worker 0 hosts the one-shard server and the sharded server's root
  // shard, so its crash drives both failover protocols.
  plan.ts_crash.worker = 0;
  plan.ts_crash.crash_time = uniform(0.15, 0.30) * horizon;
  plan.ts_crash.recover_time =
      plan.ts_crash.crash_time + uniform(0.10, 0.20) * horizon;
  plan.fail_stop.worker = pick(1, workers - 1);
  plan.fail_stop.crash_time = uniform(0.40, 0.55) * horizon;
  plan.fail_stop.recover_time = sim::kNeverTime;
  // One rack other than the root's is cut off from the rest.
  const int rack = pick(1, workers / rack_size - 1);
  for (int w = rack * rack_size; w < (rack + 1) * rack_size; ++w) {
    plan.partition.side_a.push_back(w);
  }
  plan.partition.start = uniform(0.55, 0.70) * horizon;
  plan.partition.end = plan.partition.start + uniform(0.05, 0.10) * horizon;
  plan.gray.worker = pick(1, workers - 1);
  plan.gray.start = uniform(0.05, 0.25) * horizon;
  plan.gray.end = plan.gray.start + uniform(0.20, 0.40) * horizon;
  plan.gray.delay_factor = uniform(2.0, 4.0);
  plan.lossy_seed = rng();
  return plan;
}

// observed_chaos: two observed Fela runs under one seeded fault schedule,
// auto-sharded and one-shard, each with an unobserved twin. The only
// workload that observes, so export and the control plane's fault path
// (reclaim, regrant, both failover protocols) load it.
void ObservedChaos(Pass& pass, uint64_t seed, bool tiny) {
  constexpr int kRackSize = 16;
  const int workers = tiny ? 32 : 64;
  const int iterations = tiny ? 4 : 40;
  // Simulated seconds of one iteration at this size under the lossy
  // control plane alone (about 34 s measured at 64 workers), so every
  // fault lands inside the run.
  constexpr double kIterationSec = 30.0;
  const ChaosPlan plan =
      DrawChaos(seed, workers, kRackSize, iterations * kIterationSec);
  const runtime::FaultFactory faults = [plan](int) { return plan.Build(); };

  const model::Model model = pass.BuildModel(model::zoo::Vgg19);
  const std::vector<model::SubModel> sub_models = pass.Partition(model);
  for (const int shards : {0, 1}) {
    core::FelaConfig config = core::FelaConfig::Defaults(
        static_cast<int>(sub_models.size()), workers);
    config.ts_shards = shards;
    runtime::ExperimentSpec spec;
    spec.total_batch = kSamplesPerWorker * workers;
    spec.iterations = iterations;
    spec.num_workers = workers;
    spec.calibration.topology = Racked(kRackSize);
    spec.observe = true;
    const runtime::EngineFactory fela = FelaOn(model, sub_models, config);
    const runtime::ExperimentResult observed =
        pass.Run(spec, fela, runtime::NoStragglerFactory(), faults);
    spec.observe = false;
    const runtime::ExperimentResult twin =
        pass.Run(spec, fela, runtime::NoStragglerFactory(), faults);
    pass.ExpectSameOutcome(observed, twin);
  }
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"scale_1024", Scale1024, [](bool) { return 1; }},
      // Per point: DP, MP, HP and Fela, each with and without stragglers.
      {"paper_stragglers", PaperStragglers,
       [](bool tiny) { return kPaperCases * PaperPoints(tiny) * 4 * 2; }},
      // Sharded and one-shard, each observed and unobserved.
      {"observed_chaos", ObservedChaos, [](bool) { return 2 * 2; }},
  };
  return kWorkloads;
}

}  // namespace fela::perfbench
