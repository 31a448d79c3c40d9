// End-to-end checks for the observability layer: a seeded observed run
// exports a loadable Chrome trace with one track per worker, attribution
// fractions sum to exactly 1, and unobserved runs carry no artifacts.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/tokenize.h"
#include "model/zoo.h"
#include "runtime/attribution.h"
#include "runtime/bench_json.h"
#include "runtime/experiment.h"
#include "runtime/report.h"
#include "sim/faults.h"
#include "sim/trace_io.h"
#include "suite/suite.h"

namespace fela::runtime {
namespace {

ExperimentSpec ObservedSpec() {
  ExperimentSpec spec;
  spec.total_batch = 256;
  spec.iterations = 4;
  spec.observe = true;
  return spec;
}

ExperimentResult ObservedFelaRun() {
  const model::Model m = model::zoo::GoogLeNet();
  core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
  return RunExperiment(ObservedSpec(), suite::FelaFactory(m, cfg),
                       NoStragglerFactory());
}

void ExpectFractionsSumToOne(const obs::AttributionReport& report,
                             int expected_workers, int expected_iterations) {
  ASSERT_EQ(report.num_workers, expected_workers);
  ASSERT_EQ(static_cast<int>(report.workers.size()), expected_workers);
  for (const auto& w : report.workers) {
    double run_sum = 0.0;
    for (int p = 0; p < obs::kNumPhases; ++p) {
      const double f = w.run.fraction(static_cast<obs::Phase>(p));
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0 + 1e-9);
      run_sum += f;
    }
    EXPECT_NEAR(run_sum, 1.0, 1e-9) << "worker " << w.worker;
    ASSERT_EQ(static_cast<int>(w.iterations.size()), expected_iterations);
    for (size_t it = 0; it < w.iterations.size(); ++it) {
      double it_sum = 0.0;
      for (int p = 0; p < obs::kNumPhases; ++p) {
        it_sum += w.iterations[it].fraction(static_cast<obs::Phase>(p));
      }
      EXPECT_NEAR(it_sum, 1.0, 1e-9)
          << "worker " << w.worker << " iteration " << it;
    }
  }
}

TEST(ObservabilityTest, UnobservedRunCarriesNoArtifacts) {
  ExperimentSpec spec = ObservedSpec();
  spec.observe = false;
  const auto result = RunExperiment(
      spec, suite::DpFactory(model::zoo::GoogLeNet()), NoStragglerFactory());
  EXPECT_FALSE(result.observed);
  EXPECT_TRUE(result.chrome_trace.empty());
  EXPECT_TRUE(result.attribution.workers.empty());
  EXPECT_EQ(result.metrics.size(), 0u);
}

TEST(ObservabilityTest, FelaAttributionFractionsSumToOne) {
  const auto result = ObservedFelaRun();
  ASSERT_TRUE(result.observed);
  ExpectFractionsSumToOne(result.attribution, 8, 4);
  EXPECT_EQ(result.attribution.engine, "Fela");
  // Every iteration names a bottleneck from the critical-path walk.
  ASSERT_EQ(result.attribution.critical.size(), 4u);
  for (const auto& cp : result.attribution.critical) {
    EXPECT_GE(cp.last_finisher, 0);
    EXPECT_GT(cp.path.total, 0.0);
  }
}

TEST(ObservabilityTest, DpAttributionFractionsSumToOne) {
  const auto result =
      RunExperiment(ObservedSpec(), suite::DpFactory(model::zoo::Vgg19()),
                    NoStragglerFactory());
  ASSERT_TRUE(result.observed);
  ExpectFractionsSumToOne(result.attribution, 8, 4);
  // DP computes on every worker each iteration.
  for (const auto& w : result.attribution.workers) {
    EXPECT_GT(w.run.fraction(obs::Phase::kCompute), 0.0);
  }
}

TEST(ObservabilityTest, ChromeTraceIsValidJsonWithTrackPerWorker) {
  const auto result = ObservedFelaRun();
  ASSERT_FALSE(result.chrome_trace.empty());

  common::Json doc;
  std::string error;
  ASSERT_TRUE(common::Json::Parse(result.chrome_trace, &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());

  const common::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // One thread_name metadata entry per used track; the engine emits
  // iteration framing on the driver track, so all 8 workers + driver
  // should appear.
  int metadata = 0;
  int complete = 0;
  for (const auto& e : events->items()) {
    const common::Json* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string_value() == "M") ++metadata;
    if (ph->string_value() == "X") ++complete;
  }
  EXPECT_GE(metadata, 9);  // 8 worker tracks + token-server/driver track
  EXPECT_GT(complete, 0);

  const common::Json* other = doc.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_DOUBLE_EQ(other->Find("num_workers")->number_value(), 8.0);
}

TEST(ObservabilityTest, RunMetricsCarryTokenServerCounters) {
  const auto result = ObservedFelaRun();
  const auto* grants = result.metrics.FindCounter("ts_grants", "engine=Fela");
  ASSERT_NE(grants, nullptr);
  EXPECT_GT(grants->value(), 0u);
  const auto* iters =
      result.metrics.FindCounter("iterations", "engine=Fela");
  ASSERT_NE(iters, nullptr);
  EXPECT_EQ(iters->value(), 4u);
}

TEST(ObservabilityTest, AttributionJsonRoundTrips) {
  const auto result = ObservedFelaRun();
  const common::Json doc = obs::AttributionToJson(result.attribution);
  common::Json parsed;
  std::string error;
  ASSERT_TRUE(common::Json::Parse(doc.Dump(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.Find("engine")->string_value(), "Fela");
  ASSERT_NE(parsed.Find("workers"), nullptr);
  EXPECT_EQ(parsed.Find("workers")->size(), 8u);
}

TEST(ObservabilityTest, BenchReportValidatesSchema) {
  obs::BenchReport report("unit");
  report.Add(ObservedFelaRun(), /*x=*/1.0);
  std::string error;
  EXPECT_TRUE(obs::ValidateBenchReportJson(report.ToJson(), &error)) << error;

  // A broken document is rejected.
  common::Json bad = common::Json::Object();
  bad.Set("bench", "unit");
  EXPECT_FALSE(obs::ValidateBenchReportJson(bad, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ObservabilityTest, BinaryTraceRoundTripsByteIdenticalUnderFaults) {
  // A composite-fault observed run — crashes plus a lossy control plane
  // exercise the fault-path trace kinds — must produce a binary
  // transcript that an *offline* registry (built only from the CSV form,
  // exactly what fela-detok loads) re-renders byte-identically to the
  // in-process Chrome trace.
  const FaultFactory faults = [](int n) {
    std::vector<std::unique_ptr<sim::FaultSchedule>> parts;
    parts.push_back(std::make_unique<sim::RandomCrashes>(
        n, /*crash_prob=*/0.2, /*window_sec=*/2.0, /*down_sec=*/0.5,
        /*seed=*/7));
    parts.push_back(std::make_unique<sim::LossyControlPlane>(
        /*drop_prob=*/0.05, /*dup_prob=*/0.05, /*seed=*/11));
    return std::make_unique<sim::CompositeFaults>(std::move(parts));
  };
  const model::Model m = model::zoo::GoogLeNet();
  core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
  const auto result = RunExperiment(ObservedSpec(), suite::FelaFactory(m, cfg),
                                    NoStragglerFactory(), faults);
  ASSERT_TRUE(result.observed);
  ASSERT_FALSE(result.binary_trace.empty());

  obs::BinaryTraceData data;
  std::string error;
  ASSERT_TRUE(obs::ParseBinaryTrace(result.binary_trace, &data, &error))
      << error;
  EXPECT_FALSE(data.truncated);
  EXPECT_TRUE(data.has_trace);
  EXPECT_FALSE(data.events.empty());

  common::TokenRegistry offline;
  ASSERT_TRUE(common::LoadTokenDbCsv(
      common::TokenDbCsv(common::TokenRegistry::Global()), &offline, &error))
      << error;
  EXPECT_EQ(obs::RenderChromeTrace(data, &offline), result.chrome_trace);
}

double Seconds(const obs::PhaseBreakdown& b, obs::Phase phase) {
  return b.seconds[static_cast<size_t>(phase)];
}

// Hand-built spans pin which spans each (iteration, worker) window sees.
TEST(ObservabilityTest, AttributionIgnoresSpansOffTheWorkerTracks) {
  const std::vector<obs::Span> spans = {
      {2, obs::Phase::kCompute, 0.0, 10.0, 0, {}},  // driver track
      {0, obs::Phase::kCompute, 0.0, 4.0, 0, {}},
  };
  const obs::AttributionReport report =
      obs::BuildAttribution("unit", 2, spans, {IterationStats{0.0, 10.0}});
  ASSERT_EQ(report.workers.size(), 2u);
  EXPECT_DOUBLE_EQ(Seconds(report.workers[0].run, obs::Phase::kCompute), 4.0);
  EXPECT_DOUBLE_EQ(Seconds(report.workers[0].run, obs::Phase::kIdle), 6.0);
  EXPECT_DOUBLE_EQ(Seconds(report.workers[1].run, obs::Phase::kIdle), 10.0);
  ASSERT_EQ(report.critical.size(), 1u);
  EXPECT_EQ(report.critical[0].last_finisher, 0);
  EXPECT_DOUBLE_EQ(Seconds(report.critical[0].path, obs::Phase::kCompute),
                   4.0);
  EXPECT_DOUBLE_EQ(Seconds(report.critical[0].path, obs::Phase::kIdle), 6.0);
}

TEST(ObservabilityTest, AttributionIgnoresIterationFramingOnAWorkerTrack) {
  const std::vector<obs::Span> spans = {
      {0, obs::Phase::kIteration, 0.0, 10.0, 0, {}},
      {0, obs::Phase::kCompute, 2.0, 5.0, 0, {}},
  };
  const obs::AttributionReport report =
      obs::BuildAttribution("unit", 1, spans, {IterationStats{0.0, 10.0}});
  const obs::PhaseBreakdown& run = report.workers[0].run;
  EXPECT_DOUBLE_EQ(Seconds(run, obs::Phase::kCompute), 3.0);
  EXPECT_DOUBLE_EQ(Seconds(run, obs::Phase::kIdle), 7.0);
  EXPECT_DOUBLE_EQ(Seconds(run, obs::Phase::kIteration), 0.0);
  EXPECT_DOUBLE_EQ(Seconds(report.critical[0].path, obs::Phase::kCompute),
                   3.0);
  EXPECT_DOUBLE_EQ(Seconds(report.critical[0].path, obs::Phase::kIdle), 7.0);
}

TEST(ObservabilityTest, AttributionClipsASpanIntoEveryWindowItCrosses) {
  const std::vector<obs::Span> spans = {
      {0, obs::Phase::kCompute, 6.0, 14.0, -1, {}},
  };
  const obs::AttributionReport report =
      obs::BuildAttribution("unit", 1, spans,
                            {IterationStats{0.0, 10.0},
                             IterationStats{10.0, 20.0}});
  const obs::WorkerAttribution& w = report.workers[0];
  ASSERT_EQ(w.iterations.size(), 2u);
  for (const obs::PhaseBreakdown& window : w.iterations) {
    EXPECT_DOUBLE_EQ(Seconds(window, obs::Phase::kCompute), 4.0);
    EXPECT_DOUBLE_EQ(Seconds(window, obs::Phase::kIdle), 6.0);
  }
  EXPECT_DOUBLE_EQ(Seconds(w.run, obs::Phase::kCompute), 8.0);
  EXPECT_DOUBLE_EQ(w.run.total, 20.0);
  ASSERT_EQ(report.critical.size(), 2u);
  for (const obs::IterationCriticalPath& c : report.critical) {
    EXPECT_DOUBLE_EQ(Seconds(c.path, obs::Phase::kCompute), 4.0);
    EXPECT_DOUBLE_EQ(Seconds(c.path, obs::Phase::kIdle), 6.0);
  }
}

TEST(ObservabilityTest, AttributionBreaksAnExactTieForTheLowerWorker) {
  // Worker 1's span is recorded first; the critical-path walk still
  // names worker 0, which comes first in worker order.
  const std::vector<obs::Span> spans = {
      {1, obs::Phase::kCompute, 1.0, 9.0, 0, {}},
      {0, obs::Phase::kCompute, 1.0, 9.0, 0, {}},
  };
  const obs::AttributionReport report =
      obs::BuildAttribution("unit", 2, spans, {IterationStats{0.0, 10.0}});
  ASSERT_EQ(report.critical.size(), 1u);
  EXPECT_EQ(report.critical[0].last_finisher, 0);
  EXPECT_DOUBLE_EQ(Seconds(report.critical[0].path, obs::Phase::kCompute),
                   8.0);
  EXPECT_DOUBLE_EQ(Seconds(report.critical[0].path, obs::Phase::kIdle), 2.0);
  for (const obs::WorkerAttribution& w : report.workers) {
    EXPECT_DOUBLE_EQ(Seconds(w.run, obs::Phase::kCompute), 8.0);
  }
}

TEST(ObservabilityTest, AttributionTableRendersEveryWorker) {
  const auto result = ObservedFelaRun();
  const std::string table = RenderAttributionTable(result.attribution);
  for (int w = 0; w < 8; ++w) {
    EXPECT_NE(table.find("w" + std::to_string(w)), std::string::npos);
  }
  EXPECT_NE(table.find("compute"), std::string::npos);
}

}  // namespace
}  // namespace fela::runtime
