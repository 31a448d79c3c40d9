// Shard-equivalence suite for the hierarchical Token Server (sharded
// sub-distributors): (1) auto and explicit ts_shards=1 replay
// *byte-identically* against one golden transcript fingerprint each on
// both determinism gate specs — fig8 fault-free (captured from the
// pre-shard single-server build: sharding must be invisible at S=1) and
// the control-plane chaos gate (a TS-host crash, so it pins the S=1
// fence/restore failover); (2) sharded runs keep the conservation
// ledger per shard and cluster-wide and replay deterministically; (3) an
// imbalanced-STB spec (one rack gray-slowed) actually exercises the
// hierarchical cross-shard steal path; (4) observed fault-free runs that
// reach the donor rungs of the take ladder, and a CTD hunt steal, replay
// against golden transcript fingerprints.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/fela_config.h"
#include "core/fela_engine.h"
#include "core/token_server.h"
#include "model/partition.h"
#include "model/profile.h"
#include "model/zoo.h"
#include "runtime/determinism.h"
#include "runtime/experiment.h"
#include "sim/faults.h"
#include "sim/topology.h"
#include "suite/suite.h"
#include "testing/spec_gen.h"

namespace fela::runtime {
namespace {

// FNV-1a fingerprints of the FELADET1 binary and text determinism
// transcripts on the two gate specs below. The fig8 pair was produced by
// the single-server Token Server (commit f699ccf, before sharding); a
// sharded server running with one shard must reproduce those bytes
// exactly. The chaos pair was produced by the one-shard server failing
// over through the per-shard fence/restore live handoff (the server is
// retained and its buckets survive the TS-host crash).
constexpr uint64_t kFig8BinaryGolden = 0x2e86ea234a612ce6ull;
constexpr uint64_t kFig8TextGolden = 0x6164985474e15245ull;
constexpr uint64_t kChaosBinaryGolden = 0x5bc4674d65035b8full;
constexpr uint64_t kChaosTextGolden = 0xf819ab74d8bb31eeull;

int Vgg19Levels() {
  return static_cast<int>(
      model::BinPartitioner()
          .Partition(model::zoo::Vgg19(), model::ProfileRepository::Default())
          .size());
}

/// The fault schedule of the control-plane chaos determinism gate (TS
/// host crash + half-cluster partition + gray latency).
FaultFactory ChaosFaults() {
  return [](int n) -> std::unique_ptr<sim::FaultSchedule> {
    std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
    parts.push_back(std::make_unique<sim::ScriptedCrashes>(
        std::vector<sim::CrashEvent>{{/*worker=*/0, 2.0, 12.0}}));
    sim::PartitionEvent ev;
    ev.start = 4.0;
    ev.end = 8.0;
    for (int w = 0; w < n / 2; ++w) ev.side_a.push_back(w);
    parts.push_back(std::make_unique<sim::NetworkPartition>(
        std::vector<sim::PartitionEvent>{ev}));
    parts.push_back(std::make_unique<sim::GrayFailures>(
        std::vector<sim::GrayEvent>{{/*worker=*/3, 5.0, 30.0, 4.0}}));
    return std::make_unique<sim::CompositeFaults>(std::move(parts));
  };
}

struct TranscriptHashes {
  uint64_t binary = 0;
  uint64_t text = 0;
};

TranscriptHashes RunAndHash(const ExperimentSpec& base,
                            const EngineFactory& engine,
                            const FaultFactory& faults) {
  ExperimentSpec spec = base;
  spec.observe = true;  // transcripts require the observability layer
  const ExperimentResult r =
      RunExperiment(spec, engine, NoStragglerFactory(), faults);
  return {Fnv1a64(BinaryTranscript(r)), Fnv1a64(DeterminismTranscript(r))};
}

// --- S=1 byte-identity against the goldens -----------------------------

TEST(ShardEquivalence, Fig8ByteIdenticalToPreShardServer) {
  ExperimentSpec gate;
  gate.total_batch = 256;
  gate.iterations = 4;
  // Default config: flat topology, ts_shards=0 -> one shard.
  core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
  const TranscriptHashes auto_one =
      RunAndHash(gate, suite::FelaFactory(model::zoo::GoogLeNet(), cfg),
                 nullptr);
  EXPECT_EQ(auto_one.binary, kFig8BinaryGolden);
  EXPECT_EQ(auto_one.text, kFig8TextGolden);
  // Explicit ts_shards=1 must be the very same bytes.
  cfg.ts_shards = 1;
  const TranscriptHashes explicit_one =
      RunAndHash(gate, suite::FelaFactory(model::zoo::GoogLeNet(), cfg),
                 nullptr);
  EXPECT_EQ(explicit_one.binary, kFig8BinaryGolden);
  EXPECT_EQ(explicit_one.text, kFig8TextGolden);
}

TEST(ShardEquivalence, ChaosGateOneShardByteIdenticalToGolden) {
  const model::Model model = model::zoo::Vgg19();
  ExperimentSpec gate;
  gate.total_batch = 512.0;
  gate.iterations = 4;
  gate.num_workers = 8;
  core::FelaConfig cfg = suite::TunedFelaConfig(model, 512.0, 8, 5);
  const TranscriptHashes auto_one =
      RunAndHash(gate, suite::FelaFactory(model, cfg), ChaosFaults());
  EXPECT_EQ(auto_one.binary, kChaosBinaryGolden);
  EXPECT_EQ(auto_one.text, kChaosTextGolden);
  cfg.ts_shards = 1;
  const TranscriptHashes explicit_one =
      RunAndHash(gate, suite::FelaFactory(model, cfg), ChaosFaults());
  EXPECT_EQ(explicit_one.binary, kChaosBinaryGolden);
  EXPECT_EQ(explicit_one.text, kChaosTextGolden);
}

// --- Sharded-run invariants -------------------------------------------

/// Probes the live engine after a sharded run: the conservation ledger
/// must audit clean as a whole, each shard's books must sum to the
/// cluster-wide ledger, and the failover identity must hold.
void ExpectShardedLedgerClean(const core::FelaEngine& fela,
                              int expect_shards) {
  const core::TokenServer& ts = fela.token_server();
  EXPECT_EQ(ts.num_shards(), expect_shards);
  EXPECT_TRUE(ts.CheckInvariants().empty());
  EXPECT_TRUE(fela.CheckFailoverInvariants().empty());
  core::TokenServer::Stats summed;
  for (int s = 0; s < ts.num_shards(); ++s) summed += ts.shard_stats(s);
  const core::TokenServer::Stats whole = ts.stats();
  EXPECT_EQ(summed.grants, whole.grants);
  EXPECT_EQ(summed.completions, whole.completions);
  EXPECT_EQ(summed.steals, whole.steals);
  EXPECT_EQ(summed.cross_shard_steals, whole.cross_shard_steals);
  EXPECT_EQ(summed.donations, whole.donations);
  EXPECT_EQ(summed.tokens_reclaimed, whole.tokens_reclaimed);
}

TEST(ShardedInvariants, RackedAutoShardingConservesPerShardAndClusterWide) {
  const int levels = Vgg19Levels();
  ExperimentSpec spec;
  spec.total_batch = 256;
  spec.iterations = 4;
  spec.num_workers = 8;
  // rack_size=4 -> two racks -> two sub-distributors by default.
  spec.calibration.topology = sim::Topology::Racked(4, 5e9, 5e-6);
  bool probed = false;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    probed = true;
    ExpectShardedLedgerClean(dynamic_cast<const core::FelaEngine&>(engine),
                             /*expect_shards=*/2);
  };
  const ExperimentResult result = RunExperiment(
      spec,
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(levels, 8)),
      NoStragglerFactory());
  EXPECT_TRUE(probed);
  EXPECT_FALSE(result.stats.stalled);
}

TEST(ShardedInvariants, ExplicitOddNonDivisorShardCount) {
  // ts_shards=3 over 8 workers: blocks {0..2}{3..5}{6..7} — the ragged
  // last shard must keep its own books straight too.
  const int levels = Vgg19Levels();
  core::FelaConfig cfg = core::FelaConfig::Defaults(levels, 8);
  cfg.ts_shards = 3;
  ExperimentSpec spec;
  spec.total_batch = 256;
  spec.iterations = 4;
  spec.num_workers = 8;
  bool probed = false;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    probed = true;
    ExpectShardedLedgerClean(dynamic_cast<const core::FelaEngine&>(engine),
                             /*expect_shards=*/3);
  };
  const ExperimentResult result =
      RunExperiment(spec, suite::FelaFactory(model::zoo::Vgg19(), cfg),
                    NoStragglerFactory());
  EXPECT_TRUE(probed);
  EXPECT_FALSE(result.stats.stalled);
}

TEST(ShardedDeterminism, ChaosRunReplaysByteIdentically) {
  // Sharded server + racked fabric + the chaos gate faults: two runs of
  // the same spec must produce identical FELADET1 bytes.
  const int levels = Vgg19Levels();
  ExperimentSpec spec;
  spec.total_batch = 256;
  spec.iterations = 4;
  spec.num_workers = 8;
  spec.calibration.topology = sim::Topology::Racked(4, 5e9, 5e-6);
  const DeterminismReport report = VerifyDeterminism(
      spec,
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(levels, 8)),
      NoStragglerFactory(), ChaosFaults());
  EXPECT_TRUE(report.deterministic) << report.ToString();
  EXPECT_NE(report.hash_first, 0u);
}

// --- Hierarchical steal path ------------------------------------------

/// Computes 8x slower on workers [first, last] in every iteration: one
/// whole rack of degraded devices, the STB-imbalance scenario that makes
/// the fast rack exhaust its own sub-distributor.
class SlowRack final : public sim::StragglerSchedule {
 public:
  SlowRack(int first, int last, double slowdown)
      : first_(first), last_(last), slowdown_(slowdown) {}
  double DelayFor(int, int) const override { return 0.0; }
  double SlowdownFor(int, int worker) const override {
    return (worker >= first_ && worker <= last_) ? slowdown_ : 1.0;
  }
  std::string ToString() const override { return "SlowRack"; }

 private:
  int first_;
  int last_;
  double slowdown_;
};

TEST(CrossShardSteal, ImbalancedStbForcesHierarchicalSteal) {
  // Compute-slow every worker in rack 0 for the whole run: rack 1
  // drains its own STBs, exhausts intra-rack victims, and must go
  // through the root to steal from rack 0's sub-distributor.
  const int levels = Vgg19Levels();
  ExperimentSpec spec;
  spec.total_batch = 512;
  spec.iterations = 4;
  spec.num_workers = 8;
  spec.calibration.topology = sim::Topology::Racked(4, 5e9, 5e-6);
  StragglerFactory slow_rack0 = [](int) {
    return std::make_unique<SlowRack>(/*first=*/0, /*last=*/3,
                                      /*slowdown=*/8.0);
  };
  bool probed = false;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    probed = true;
    const auto& fela = dynamic_cast<const core::FelaEngine&>(engine);
    const core::TokenServer::Stats stats = fela.ts_stats();
    EXPECT_GT(stats.cross_shard_steals, 0u);
    // Every cross-shard grant has exactly one donor-side donation.
    EXPECT_EQ(stats.donations, stats.cross_shard_steals);
    ExpectShardedLedgerClean(fela, /*expect_shards=*/2);
  };
  const ExperimentResult result = RunExperiment(
      spec,
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(levels, 8)),
      slow_rack0);
  EXPECT_TRUE(probed);
  EXPECT_FALSE(result.stats.stalled);
}

// --- Take-path goldens ------------------------------------------------

/// An observed, fault-free Fela run whose grants reach a given rung of
/// the take ladder. The spec is a checked-in fuzz spec carrying every
/// field, read through SpecFromJson, so a change to the generator cannot
/// move it; the fingerprints are FNV-1a of its binary and text
/// determinism transcripts.
struct TakePathGolden {
  const char* name;
  const char* spec_file;
  uint64_t binary;
  uint64_t text;
  bool donor_rung;  // reaches a donor shard; else only local steals
};

const TakePathGolden kTakePathGoldens[] = {
    // HF, CTD subset 9 of 16, ADS off, ts_shards 3: the CTD hunt and the
    // helper steal both reach donor shards.
    {"HfAndCtdDonorSeed122", "hf_and_ctd_donor_seed122.json",
     0xc854da9218e3c2b9ull, 0x9109a2dd6c5041c9ull, true},
    // HF, CTD subset 1 of 4, racks of 2, ts_shards 3: the CTD hunt's donor
    // rung.
    {"CtdDonorSeed156", "ctd_donor_seed156.json", 0x76db08aa456acf72ull,
     0x66d5442451966786ull, true},
    // No HF, ADS on, racks of 4: a dry shard bucket takes from the donor
    // shard's bucket.
    {"NoHfDonorSeed202", "no_hf_donor_seed202.json", 0xf3ef0c987525fba6ull,
     0x7106cb9eeddc4dfcull, true},
    // HF, CTD subset 2 of 3, one shard: CTD hunt steals from a victim,
    // which must leave the helper assignment alone (re-pointing it moves
    // these bytes).
    {"CtdHuntVictimSeed104", "ctd_hunt_victim_seed104.json",
     0x412f2b85efd33f21ull, 0x6b0da4715c912ffbull, false},
};

void PrintTo(const TakePathGolden& golden, std::ostream* os) {
  *os << golden.name;
}

class TakePathGoldenTest : public ::testing::TestWithParam<TakePathGolden> {};

TEST_P(TakePathGoldenTest, TranscriptsMatchGolden) {
  const TakePathGolden& golden = GetParam();
  std::ifstream in(std::string(FELA_TAKE_PATH_SPEC_DIR) + "/" +
                   golden.spec_file);
  ASSERT_TRUE(in.good()) << golden.spec_file;
  std::stringstream text;
  text << in.rdbuf();
  common::Json json;
  std::string error;
  ASSERT_TRUE(common::Json::Parse(text.str(), &json, &error)) << error;
  fela::testing::FuzzSpec fuzz;
  ASSERT_TRUE(fela::testing::SpecFromJson(json, &fuzz, &error)) << error;
  fuzz.observe = true;  // transcripts require the observability layer
  ExperimentSpec spec = fela::testing::ToExperimentSpec(fuzz);
  core::TokenServer::Stats stats;
  spec.post_run_probe = [&](const Engine& engine, Cluster&) {
    stats = dynamic_cast<const core::FelaEngine&>(engine).ts_stats();
  };
  const ExperimentResult r =
      RunExperiment(spec, fela::testing::MakeEngineFactory(fuzz),
                    fela::testing::MakeStragglerFactory(fuzz),
                    fela::testing::MakeFaultFactory(fuzz));
  EXPECT_EQ(Fnv1a64(BinaryTranscript(r)), golden.binary);
  EXPECT_EQ(Fnv1a64(DeterminismTranscript(r)), golden.text);
  // The run took the rung it pins.
  EXPECT_GT(stats.steals, 0u);
  if (golden.donor_rung) {
    EXPECT_GT(stats.donations, 0u);
    EXPECT_GT(stats.cross_shard_steals, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TakePaths, TakePathGoldenTest, ::testing::ValuesIn(kTakePathGoldens),
    [](const ::testing::TestParamInfo<TakePathGolden>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace fela::runtime
