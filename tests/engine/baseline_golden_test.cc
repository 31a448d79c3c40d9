// Byte-identity goldens for the five baseline engines (DP, PS-DP, MP, HP,
// ElasticMP): each case runs one observed experiment and compares FNV-1a
// fingerprints of its FELADET1 binary and text determinism transcripts
// against values captured before the engines cached their per-stage and
// per-run costs. A cost hoisted out of the event loop must reproduce
// every simulated byte, so any drift here is a behaviour change.
//
// The scenarios cover what those caches key on: both paper models under
// round-robin stragglers, and a heterogeneous worker (which drives
// SlowdownFor and ElasticMP's re-partitioning) at a total batch of 510,
// which leaves a 2-sample remainder micro-batch behind 127 full ones.
// A fail-stop scenario, captured before the engines shared one iteration
// driver, pins that driver's drain paths: worker 5 dies for good during
// the second iteration, so DP and PS-DP stall with their framing span
// cancelled while MP, HP and ElasticMP (which model no crashes) finish.
// A last case pins Fela's drain: every worker fail-stops at that instant
// and the run stalls after one iteration.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/fela_config.h"
#include "model/zoo.h"
#include "runtime/determinism.h"
#include "runtime/experiment.h"
#include "sim/faults.h"
#include "sim/straggler.h"
#include "sim/types.h"
#include "suite/suite.h"

namespace fela::runtime {
namespace {

enum class Scenario {
  kVgg19RoundRobin,
  kGoogLeNetRoundRobin,
  kHeteroRemainder,
  kFailStop,
};
enum class Baseline { kDp, kPsDp, kMp, kHp, kElasticMp };

struct Golden {
  Scenario scenario;
  Baseline engine;
  uint64_t binary;  // FNV-1a of the FELADET1 binary transcript
  uint64_t text;    // FNV-1a of the text determinism transcript
};

constexpr Golden kGoldens[] = {
    {Scenario::kVgg19RoundRobin, Baseline::kDp,
     0x72ad5c9de815a774ull, 0x76c2bdc61f1d547eull},
    {Scenario::kVgg19RoundRobin, Baseline::kPsDp,
     0xc30175a4ec0687a0ull, 0xb5541a12592ef212ull},
    {Scenario::kVgg19RoundRobin, Baseline::kMp,
     0xc8018fadab8f93b7ull, 0xa51692472f415682ull},
    {Scenario::kVgg19RoundRobin, Baseline::kHp,
     0x8282bbcca26da17aull, 0xae4c217184d108d6ull},
    {Scenario::kVgg19RoundRobin, Baseline::kElasticMp,
     0xce1b498b5d59be28ull, 0xfbfbb34518b5f1d2ull},
    {Scenario::kGoogLeNetRoundRobin, Baseline::kDp,
     0x7c39e36a025f4e26ull, 0x8403048395a3a050ull},
    {Scenario::kGoogLeNetRoundRobin, Baseline::kPsDp,
     0x71b3f0621c5b0e82ull, 0x7c64a34b2d0e68e1ull},
    {Scenario::kGoogLeNetRoundRobin, Baseline::kMp,
     0x2a724e824835e69bull, 0x6d7f61cdbab262f5ull},
    {Scenario::kGoogLeNetRoundRobin, Baseline::kHp,
     0xdb0c8aa51d21a641ull, 0x7fb273905864b3d7ull},
    {Scenario::kGoogLeNetRoundRobin, Baseline::kElasticMp,
     0xab4b9a3838dd863eull, 0xa1dbffce09d8b9b6ull},
    {Scenario::kHeteroRemainder, Baseline::kDp,
     0x9b0d8b4e7e0f2324ull, 0xa2aac6e1a2b5fc4full},
    {Scenario::kHeteroRemainder, Baseline::kPsDp,
     0x9e3539497469f18cull, 0x03408a93a06db725ull},
    {Scenario::kHeteroRemainder, Baseline::kMp,
     0x39a625299daf3a33ull, 0x75c0e016ceefa734ull},
    {Scenario::kHeteroRemainder, Baseline::kHp,
     0xeffb8e8386ed1679ull, 0x63c12d187b252200ull},
    {Scenario::kHeteroRemainder, Baseline::kElasticMp,
     0x8aaac115811ce50dull, 0x3f8e50cf09bc19c6ull},
    {Scenario::kFailStop, Baseline::kDp,
     0xb5771accb2ed5d8aull, 0x96f88e5c4e2e7c24ull},
    {Scenario::kFailStop, Baseline::kPsDp,
     0xf1a2f10a616c05e7ull, 0xa5a483858676ce9full},
    {Scenario::kFailStop, Baseline::kMp,
     0x4c3e000a8aab3bfdull, 0xc8c37c45bc121777ull},
    {Scenario::kFailStop, Baseline::kHp,
     0xe409cc5db2427fa4ull, 0x9def0f99208be2e4ull},
    {Scenario::kFailStop, Baseline::kElasticMp,
     0x40b37c167a51f8d3ull, 0x504cc836b560cfeeull},
};

std::string ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kVgg19RoundRobin: return "Vgg19RoundRobin";
    case Scenario::kGoogLeNetRoundRobin: return "GoogLeNetRoundRobin";
    case Scenario::kHeteroRemainder: return "HeteroRemainder";
    case Scenario::kFailStop: return "FailStop";
  }
  return "?";
}

std::string BaselineName(Baseline b) {
  switch (b) {
    case Baseline::kDp: return "Dp";
    case Baseline::kPsDp: return "PsDp";
    case Baseline::kMp: return "Mp";
    case Baseline::kHp: return "Hp";
    case Baseline::kElasticMp: return "ElasticMp";
  }
  return "?";
}

void PrintTo(const Golden& g, std::ostream* os) {
  *os << ScenarioName(g.scenario) << "/" << BaselineName(g.engine);
}

model::Model ModelFor(Scenario s) {
  return s == Scenario::kVgg19RoundRobin || s == Scenario::kFailStop
             ? model::zoo::Vgg19()
             : model::zoo::GoogLeNet();
}

EngineFactory FactoryFor(Baseline b, const model::Model& model) {
  switch (b) {
    case Baseline::kDp: return suite::DpFactory(model);
    case Baseline::kPsDp: return suite::PsDpFactory(model);
    case Baseline::kMp: return suite::MpFactory(model);
    case Baseline::kHp: return suite::HpFactory(model);
    case Baseline::kElasticMp:
      // A two-iteration profiling period re-partitions twice in six
      // iterations, so the re-built stage costs are exercised.
      return suite::ElasticMpFactory(model, /*micro_batch=*/4.0,
                                     /*profile_period=*/2);
  }
  return nullptr;
}

StragglerFactory StragglersFor(Scenario s) {
  if (s == Scenario::kHeteroRemainder) {
    return [](int) {
      return std::make_unique<sim::HeterogeneousWorker>(2, 2.0);
    };
  }
  if (s == Scenario::kFailStop) return NoStragglerFactory();
  return [](int n) {
    return std::make_unique<sim::RoundRobinStragglers>(n, 1.0);
  };
}

/// Fail-stops `workers` at 7.15 s, halfway through the second iteration
/// of the clean VGG19 @ 512 DP run (whose iterations take 4.767 s).
FaultFactory FailStopAt715(std::vector<int> workers) {
  return [workers](int) {
    std::vector<sim::CrashEvent> events;
    for (int w : workers) events.push_back({w, 7.15, sim::kNeverTime});
    return std::make_unique<sim::ScriptedCrashes>(std::move(events));
  };
}

FaultFactory FaultsFor(Scenario s) {
  return s == Scenario::kFailStop ? FailStopAt715({5}) : FaultFactory();
}

ExperimentSpec SpecFor(Scenario s) {
  ExperimentSpec spec;
  spec.num_workers = 8;
  spec.iterations = 6;
  spec.observe = true;  // transcripts require the observability layer
  switch (s) {
    case Scenario::kVgg19RoundRobin: spec.total_batch = 512.0; break;
    case Scenario::kGoogLeNetRoundRobin: spec.total_batch = 256.0; break;
    case Scenario::kHeteroRemainder: spec.total_batch = 510.0; break;
    case Scenario::kFailStop: spec.total_batch = 512.0; break;
  }
  return spec;
}

class BaselineGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(BaselineGolden, TranscriptsMatchGolden) {
  const Golden& g = GetParam();
  const ExperimentResult r =
      RunExperiment(SpecFor(g.scenario),
                    FactoryFor(g.engine, ModelFor(g.scenario)),
                    StragglersFor(g.scenario), FaultsFor(g.scenario));
  ASSERT_TRUE(r.observed);
  const uint64_t binary = Fnv1a64(BinaryTranscript(r));
  const uint64_t text = Fnv1a64(DeterminismTranscript(r));
  EXPECT_EQ(binary, g.binary) << std::hex << "binary 0x" << binary;
  EXPECT_EQ(text, g.text) << std::hex << "text 0x" << text;
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineGolden, ::testing::ValuesIn(kGoldens),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return ScenarioName(info.param.scenario) +
             BaselineName(info.param.engine);
    });

TEST(FelaDrainGolden, AllWorkersFailStopStallsAfterOneIteration) {
  const model::Model vgg = model::zoo::Vgg19();
  core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
  cfg.weights = {1, 2, 4};
  const ExperimentResult r = RunExperiment(
      SpecFor(Scenario::kFailStop), suite::FelaFactory(vgg, cfg),
      NoStragglerFactory(), FailStopAt715({0, 1, 2, 3, 4, 5, 6, 7}));
  ASSERT_TRUE(r.observed);
  EXPECT_TRUE(r.stats.stalled);
  EXPECT_EQ(r.stats.iteration_count(), 1);
  const uint64_t binary = Fnv1a64(BinaryTranscript(r));
  const uint64_t text = Fnv1a64(DeterminismTranscript(r));
  EXPECT_EQ(binary, 0x5147d29fe0f93939ull) << std::hex << "binary 0x" << binary;
  EXPECT_EQ(text, 0x79ff42dc93f21bb1ull) << std::hex << "text 0x" << text;
}

}  // namespace
}  // namespace fela::runtime
