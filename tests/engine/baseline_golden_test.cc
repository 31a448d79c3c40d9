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

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <memory>
#include <ostream>
#include <string>

#include "model/zoo.h"
#include "runtime/determinism.h"
#include "runtime/experiment.h"
#include "sim/straggler.h"
#include "suite/suite.h"

namespace fela::runtime {
namespace {

enum class Scenario {
  kVgg19RoundRobin,
  kGoogLeNetRoundRobin,
  kHeteroRemainder,
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
};

std::string ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kVgg19RoundRobin: return "Vgg19RoundRobin";
    case Scenario::kGoogLeNetRoundRobin: return "GoogLeNetRoundRobin";
    case Scenario::kHeteroRemainder: return "HeteroRemainder";
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
  return s == Scenario::kVgg19RoundRobin ? model::zoo::Vgg19()
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
  return [](int n) {
    return std::make_unique<sim::RoundRobinStragglers>(n, 1.0);
  };
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
  }
  return spec;
}

class BaselineGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(BaselineGolden, TranscriptsMatchGolden) {
  const Golden& g = GetParam();
  const ExperimentResult r =
      RunExperiment(SpecFor(g.scenario),
                    FactoryFor(g.engine, ModelFor(g.scenario)),
                    StragglersFor(g.scenario));
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

}  // namespace
}  // namespace fela::runtime
