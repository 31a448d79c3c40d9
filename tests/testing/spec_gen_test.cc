// SpecGen: every generated spec is valid, generation is deterministic,
// the kind space is actually covered, and specs survive the JSON
// round-trip that makes shrunk repros replayable.

#include "testing/spec_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "common/json.h"
#include "core/fela_config.h"
#include "sim/types.h"

namespace fela::testing {
namespace {

TEST(SpecGenTest, SameSeedSameSpec) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 123456789ull}) {
    const FuzzSpec a = GenerateSpec(seed);
    const FuzzSpec b = GenerateSpec(seed);
    EXPECT_EQ(SpecToJson(a).Dump(0), SpecToJson(b).Dump(0)) << "seed " << seed;
  }
}

TEST(SpecGenTest, GeneratedSpecsAreValid) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const FuzzSpec s = GenerateSpec(seed);
    SCOPED_TRACE(SpecLabel(s));
    EXPECT_GE(s.num_workers, 2);
    EXPECT_GT(s.total_batch, 0.0);
    EXPECT_GE(s.iterations, 1);
    EXPECT_LE(s.iterations, 10);
    // Victims stay on the cluster. Worker 0 (the initial TS host) is a
    // legal crash target — failover promotes a standby, so specs no
    // longer spare it.
    EXPECT_GE(s.straggler_victim, 0);
    EXPECT_LT(s.straggler_victim, s.num_workers);
    EXPECT_GE(s.crash_worker, 0);
    EXPECT_LT(s.crash_worker, s.num_workers);
    EXPECT_GE(s.partition_size, 1);
    EXPECT_LT(s.partition_size, s.num_workers);
    EXPECT_GE(s.gray_worker, 0);
    EXPECT_LT(s.gray_worker, s.num_workers);
    EXPECT_GT(s.gray_factor, 1.0);
    // The Fela config must pass the engine's own validation even when
    // the spec drives a baseline (the shrinker may flip engines).
    core::FelaConfig cfg = core::FelaConfig::Defaults(NumSubModelsFor(s),
                                                      s.num_workers);
    if (!s.fela_weights.empty()) cfg.weights = s.fela_weights;
    if (s.fela_ctd_subset > 0) cfg.ctd_subset_size = s.fela_ctd_subset;
    cfg.ads_enabled = s.fela_ads;
    cfg.hf_enabled = s.fela_hf;
    EXPECT_TRUE(
        core::ValidateConfig(cfg, NumSubModelsFor(s), s.num_workers).ok());
  }
}

TEST(SpecGenTest, KindSpaceIsCovered) {
  std::set<EngineKind> engines;
  std::set<ModelKind> models;
  std::set<StragglerKind> stragglers;
  std::set<FaultKind> faults;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const FuzzSpec s = GenerateSpec(seed);
    engines.insert(s.engine);
    models.insert(s.model);
    stragglers.insert(s.straggler);
    faults.insert(s.fault);
  }
  EXPECT_EQ(engines.size(), 6u);  // all six engines get fuzzed
  EXPECT_EQ(models.size(), 2u);
  EXPECT_EQ(stragglers.size(), 6u);
  EXPECT_EQ(faults.size(), static_cast<size_t>(kNumFaultKinds));
}

TEST(SpecGenTest, JsonRoundTripIsExact) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const FuzzSpec original = GenerateSpec(seed);
    const std::string dumped = SpecToJson(original).Dump(1);
    common::Json parsed;
    std::string error;
    ASSERT_TRUE(common::Json::Parse(dumped, &parsed, &error)) << error;
    FuzzSpec restored;
    ASSERT_TRUE(SpecFromJson(parsed, &restored, &error)) << error;
    EXPECT_EQ(SpecToJson(restored).Dump(1), dumped) << "seed " << seed;
  }
}

TEST(SpecGenTest, FullWidthSeedsSurviveJson) {
  // Seeds use all 64 bits; doubles would silently truncate them.
  FuzzSpec s = GenerateSpec(1);
  s.seed = 0xFFFFFFFFFFFFFFFFull;
  s.straggler_seed = 0xDEADBEEFCAFEF00Dull;
  s.fault_seed = (1ull << 63) + 12345;
  FuzzSpec restored;
  std::string error;
  ASSERT_TRUE(SpecFromJson(SpecToJson(s), &restored, &error)) << error;
  EXPECT_EQ(restored.seed, s.seed);
  EXPECT_EQ(restored.straggler_seed, s.straggler_seed);
  EXPECT_EQ(restored.fault_seed, s.fault_seed);
}

TEST(SpecGenTest, SpecFromJsonRejectsBadDocuments) {
  FuzzSpec out;
  std::string error;
  EXPECT_FALSE(SpecFromJson(common::Json::Array(), &out, &error));

  common::Json missing = SpecToJson(GenerateSpec(1));
  missing.Set("engine", common::Json());  // null out a required field
  EXPECT_FALSE(SpecFromJson(missing, &out, &error));

  common::Json unknown = SpecToJson(GenerateSpec(1));
  unknown.Set("engine", "warp-drive");
  EXPECT_FALSE(SpecFromJson(unknown, &out, &error));
  EXPECT_NE(error.find("warp-drive"), std::string::npos);

  // Integer fields are range-checked before any cast, the cluster shape
  // before anything is sized by it, and schedule parameters against the
  // ranges their constructors check, whatever kind the spec selects:
  // each document below must be rejected with an error naming the field,
  // never aborted, thrown on or truncated.
  const FuzzSpec base = GenerateSpec(1);
  ASSERT_LT(base.straggler_victim, base.num_workers);
  const struct {
    const char* field;
    common::Json value;
    const char* expect;  // substring of the error
  } bad[] = {
      {"num_workers", 0, "num_workers"},
      {"num_workers", 1, "num_workers"},
      {"num_workers", 1e12, "num_workers"},
      {"num_workers", -1, "num_workers"},
      {"iterations", -3, "iterations"},
      {"iterations", 0, "iterations"},
      {"iterations", 2.5, "iterations"},
      {"iterations", std::nan(""), "iterations"},
      {"iterations", std::numeric_limits<double>::infinity(), "iterations"},
      {"straggler_burst", 3e9, "straggler_burst"},
      {"straggler_burst", 0, "straggler_burst"},
      {"straggler_victim", base.num_workers, "straggler_victim"},
      {"crash_worker", -1, "crash_worker"},
      {"gray_worker", base.num_workers + 7, "gray_worker"},
      {"fela_ctd_subset", 0.5, "fela_ctd_subset"},
      {"rack_size", -1e300, "rack_size"},
      {"total_batch", 0, "total_batch"},
      {"total_batch", 1e300, "total_batch"},
      {"total_batch", sim::kMaxInputBatch + 1, "total_batch"},
      {"seed", -1, "seed"},
      {"seed", "99999999999999999999", "seed"},
      {"straggler_delay_sec", -1, "straggler_delay_sec"},
      {"straggler_probability", 2, "straggler_probability"},
      {"straggler_slowdown", 0.5, "straggler_slowdown"},
      {"crash_time_sec", -1, "crash_time_sec"},
      {"recover_time_sec", base.crash_time_sec, "recover_time_sec"},
      {"crash_prob", 2, "crash_prob"},
      {"crash_window_sec", 0, "crash_window_sec"},
      {"crash_down_sec", 0, "crash_down_sec"},
      {"drop_prob", 1, "drop_prob"},
      {"dup_prob", 2, "dup_prob"},
      {"partition_start_sec", -1, "partition_start_sec"},
      {"partition_dur_sec", 0, "partition_dur_sec"},
      {"gray_start_sec", -1, "gray_start_sec"},
      {"gray_dur_sec", -1, "gray_dur_sec"},
      {"gray_factor", 0, "gray_factor"},
  };
  for (const auto& b : bad) {
    common::Json doc = SpecToJson(base);
    doc.Set(b.field, b.value);
    error.clear();
    EXPECT_FALSE(SpecFromJson(doc, &out, &error)) << b.field;
    EXPECT_NE(error.find(b.expect), std::string::npos) << error;
  }

  common::Json weights = SpecToJson(base);
  common::Json fractional = common::Json::Array();
  fractional.Append(1.5);
  weights.Set("fela_weights", fractional);
  EXPECT_FALSE(SpecFromJson(weights, &out, &error));
  EXPECT_NE(error.find("fela_weights"), std::string::npos) << error;

  // A Fela case is held to the checks the engine's construction applies.
  common::Json fela = SpecToJson(base);
  fela.Set("engine", "Fela");
  ASSERT_TRUE(SpecFromJson(fela, &out, &error)) << error;
  fela.Set("fela_ts_shards", base.num_workers + 1);
  EXPECT_FALSE(SpecFromJson(fela, &out, &error));
  EXPECT_NE(error.find("ts_shards"), std::string::npos) << error;
}

TEST(SpecGenTest, ClampToClusterRestoresValidity) {
  FuzzSpec s = GenerateSpec(1);
  s.num_workers = 16;
  s.fela_weights = {1, 8, 8};
  s.fela_ctd_subset = 16;
  s.crash_worker = 15;
  s.straggler_victim = 15;

  s.num_workers = 2;  // what the shrinker does
  ClampToCluster(&s);
  for (int w : s.fela_weights) EXPECT_LE(w, 2);
  EXPECT_GE(s.fela_ctd_subset, 1);
  EXPECT_LE(s.fela_ctd_subset, 2);
  EXPECT_EQ(s.crash_worker, 1);
  EXPECT_LE(s.straggler_victim, 1);
  EXPECT_TRUE(core::ValidateConfig(
                  [&] {
                    core::FelaConfig cfg = core::FelaConfig::Defaults(
                        NumSubModelsFor(s), s.num_workers);
                    cfg.weights = s.fela_weights;
                    cfg.ctd_subset_size = s.fela_ctd_subset;
                    return cfg;
                  }(),
                  NumSubModelsFor(s), s.num_workers)
                  .ok());
}

TEST(SpecGenTest, ShardAxisIsCoveredAndValid) {
  bool saw_flat = false, saw_racked = false;
  bool saw_auto = false, saw_one = false, saw_rack_count = false,
       saw_non_divisor = false;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    const FuzzSpec s = GenerateSpec(seed);
    SCOPED_TRACE(SpecLabel(s));
    // Validity: racks smaller than the cluster, shard counts the config
    // validator accepts.
    EXPECT_GE(s.rack_size, 0);
    EXPECT_LT(s.rack_size, std::max(1, s.num_workers));
    EXPECT_GE(s.fela_ts_shards, 0);
    EXPECT_LE(s.fela_ts_shards, s.num_workers);
    if (s.rack_size == 0) saw_flat = true;
    if (s.rack_size > 1) saw_racked = true;
    if (s.fela_ts_shards == 0) saw_auto = true;
    if (s.fela_ts_shards == 1) saw_one = true;
    if (s.rack_size > 0 &&
        s.fela_ts_shards ==
            (s.num_workers + s.rack_size - 1) / s.rack_size) {
      saw_rack_count = true;
    }
    if (s.fela_ts_shards > 1 && s.num_workers % s.fela_ts_shards != 0) {
      saw_non_divisor = true;
    }
  }
  EXPECT_TRUE(saw_flat);
  EXPECT_TRUE(saw_racked);
  EXPECT_TRUE(saw_auto);
  EXPECT_TRUE(saw_one);
  EXPECT_TRUE(saw_rack_count);
  EXPECT_TRUE(saw_non_divisor);
}

TEST(SpecGenTest, PreShardReproFilesStillParse) {
  // A repro written before the sharding axis existed has neither
  // rack_size nor fela_ts_shards; both must default to 0 (flat,
  // unsharded) rather than failing the parse.
  FuzzSpec spec = GenerateSpec(7);
  spec.rack_size = 4;
  spec.fela_ts_shards = 2;
  std::string text = SpecToJson(spec).Dump(1);
  for (const char* key : {"\"rack_size\"", "\"fela_ts_shards\""}) {
    const size_t pos = text.find(key);
    ASSERT_NE(pos, std::string::npos) << key;
    const size_t start = text.rfind('\n', pos);
    const size_t end = text.find('\n', pos);
    ASSERT_NE(start, std::string::npos);
    ASSERT_NE(end, std::string::npos);
    text.erase(start, end - start);
  }
  common::Json parsed;
  std::string error;
  ASSERT_TRUE(common::Json::Parse(text, &parsed, &error)) << error;
  FuzzSpec out;
  ASSERT_TRUE(SpecFromJson(parsed, &out, &error)) << error;
  EXPECT_EQ(out.rack_size, 0);
  EXPECT_EQ(out.fela_ts_shards, 0);
  // Everything else survived the trip untouched.
  EXPECT_EQ(out.seed, spec.seed);
  EXPECT_EQ(out.num_workers, spec.num_workers);
}

TEST(SpecGenTest, ClampToClusterBoundsShardAxis) {
  FuzzSpec s = GenerateSpec(1);
  s.num_workers = 16;
  s.rack_size = 8;
  s.fela_ts_shards = 12;
  s.num_workers = 4;  // what the shrinker does
  ClampToCluster(&s);
  EXPECT_EQ(s.rack_size, 0);  // 8 >= 4: degenerate, collapse to flat
  EXPECT_LE(s.fela_ts_shards, 4);
  EXPECT_GE(s.fela_ts_shards, 0);
}

}  // namespace
}  // namespace fela::testing
