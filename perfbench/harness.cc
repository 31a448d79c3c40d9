#include "harness.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "core/fela_engine.h"
#include "core/tuning.h"
#include "model/profile.h"
#include "runtime/attribution.h"
#include "runtime/determinism.h"
#include "sim/chrome_trace.h"
#include "sim/trace_io.h"
#include "testing/oracle.h"

namespace fela::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

}  // namespace

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

double PassRecord::setup_s() const {
  double total = model_build_s + partition_s;
  for (const ExperimentRecord& e : experiments) {
    total += e.cluster_build_s + e.engine_build_s;
  }
  return total;
}

int PassRecord::failed() const {
  int n = 0;
  for (const ExperimentRecord& e : experiments) n += e.failures.empty() ? 0 : 1;
  return n;
}

Pass::Pass(bool traced) {
  record_.traced = traced;
  start_ = Now();
  mark_ = start_;
  pass_span_ = Open("pass", start_, -1);
}

int Pass::Open(const char* name, double begin, int parent) {
  if (!record_.traced) return -1;
  record_.spans.push_back(SpanRecord{name, "", begin, begin, parent});
  return static_cast<int>(record_.spans.size()) - 1;
}

void Pass::Close(int span, double end) {
  if (span >= 0) record_.spans[static_cast<size_t>(span)].end = end;
}

void Pass::Add(const char* name, const std::string& tag, double begin,
               double end, int parent) {
  if (record_.traced) {
    record_.spans.push_back(SpanRecord{name, tag, begin, end, parent});
  }
}

model::Model Pass::BuildModel(model::Model (*build)()) {
  const double begin = Now();
  model::Model model = build();
  const double end = Now();
  record_.model_build_s += end - begin;
  Add("model.build", "", begin, end, pass_span_);
  return model;
}

std::vector<model::SubModel> Pass::Partition(const model::Model& model) {
  const double begin = Now();
  std::vector<model::SubModel> sub_models = model::BinPartitioner().Partition(
      model, model::ProfileRepository::Default());
  const double end = Now();
  record_.partition_s += end - begin;
  Add("model.partition", "", begin, end, pass_span_);
  return sub_models;
}

core::FelaConfig Pass::Tune(const model::Model& model,
                            const std::vector<model::SubModel>& sub_models,
                            double total_batch, int num_workers,
                            int warmup_iterations,
                            const runtime::StragglerFactory& stragglers) {
  const double begin = Now();
  const int span = Open("core.tuning", begin, pass_span_);
  const core::ConfigEvaluator evaluate = core::MakeSimulatedEvaluator(
      model, sub_models, total_batch, num_workers, warmup_iterations,
      sim::Calibration::Default(), stragglers);
  const core::TuningReport report = core::TuneConfiguration(
      static_cast<int>(sub_models.size()), num_workers,
      [&](const core::FelaConfig& config) {
        const double eval_begin = Now();
        const double seconds = evaluate(config);
        const double eval_end = Now();
        record_.eval_s.push_back(eval_end - eval_begin);
        Add("core.tuning.eval", "Fela", eval_begin, eval_end, span);
        return seconds;
      });
  const double end = Now();
  Close(span, end);
  record_.tune_s.push_back(end - begin);
  return report.best_config;
}

runtime::EngineFactory Pass::Timed(const runtime::EngineFactory& factory) {
  return [this, factory](runtime::Cluster& cluster, double total_batch) {
    const double begin = Now();
    std::unique_ptr<runtime::Engine> engine = factory(cluster, total_batch);
    const double end = Now();
    record_.experiments.emplace_back();
    ExperimentRecord& r = current();
    r.engine = engine->name();
    r.observed = cluster.observability();
    r.cluster_build_s = begin - mark_;
    r.engine_build_s = end - begin;
    Add("runtime.cluster_build", r.engine, mark_, begin, call_span_);
    Add("engine.build", r.engine, begin, end, call_span_);
    mark_ = end;
    return engine;
  };
}

runtime::ExperimentSpec Pass::Instrument(runtime::ExperimentSpec spec) {
  spec.post_run_probe = [this](const runtime::Engine& engine,
                               runtime::Cluster& cluster) {
    const double begin = Now();
    ExperimentRecord& r = current();
    r.run_s = begin - mark_;
    Add("engine.run", r.engine, mark_, begin, call_span_);
    const sim::Simulator& simulator = cluster.simulator();
    const sim::Fabric& fabric = cluster.fabric();
    r.events = simulator.events_processed();
    r.causality_violations = simulator.causality_violations();
    r.transfers = fabric.data_transfer_count();
    r.cross_rack = fabric.cross_rack_transfer_count();
    r.data_bytes = fabric.total_data_bytes();
    r.control_msgs = fabric.control_message_count();
    r.control_dropped = fabric.control_dropped_count();
    r.control_duplicated = fabric.control_duplicated_count();
    if (r.causality_violations != 0) {
      r.failures.push_back("event queue: " +
                           std::to_string(r.causality_violations) +
                           " causality violations");
    }
    if (const auto* fela = dynamic_cast<const core::FelaEngine*>(&engine)) {
      r.ts_shards = fela->ts_shard_count();
      r.ts = fela->CumulativeTsStats();
      for (const std::string& v : fela->token_server().CheckInvariants()) {
        r.failures.push_back("token server: " + v);
      }
      for (const std::string& v : fela->CheckFailoverInvariants()) {
        r.failures.push_back("failover: " + v);
      }
    }
    if (cluster.observability()) {
      r.spans = cluster.spans().size() + cluster.spans().dropped();
    }
    const double end = Now();
    Add("bench.probe", r.engine, begin, end, call_span_);
    record_.check_s += end - begin;
    mark_ = end;
  };
  return spec;
}

void Pass::CloseExport(double end) {
  ExperimentRecord& r = current();
  r.export_s = end - mark_;
  Add("runtime.export", r.engine, mark_, end, call_span_);
}

runtime::ExperimentResult Pass::RunObservedTraced(
    const runtime::ExperimentSpec& spec,
    const runtime::EngineFactory& factory,
    const runtime::StragglerFactory& stragglers,
    const runtime::FaultFactory& faults) {
  // The steps and their order are runtime::RunExperiment's, verbatim;
  // only the spans are added, and a change to RunExperiment must be
  // mirrored here. The fingerprint check catches a drift in output, and
  // main.cc's replica.export_ratio one in cost: a traced run prints the
  // replica's export time over RunExperiment's and warns off 1.
  runtime::ExperimentResult result;
  int export_span = -1;
  {
    runtime::Cluster cluster(spec.num_workers, spec.calibration,
                             stragglers(spec.num_workers),
                             faults ? faults(spec.num_workers) : nullptr);
    cluster.SetObservability(spec.observe);
    std::unique_ptr<runtime::Engine> engine =
        factory(cluster, spec.total_batch);
    result.engine_name = engine->name();
    result.stats = engine->Run(spec.iterations);
    spec.post_run_probe(*engine, cluster);
    export_span = Open("runtime.export", mark_, call_span_);
    result.average_throughput =
        result.stats.EffectiveThroughput(spec.total_batch);
    result.gpu_utilization =
        result.stats.total_gpu_busy /
        (static_cast<double>(spec.num_workers) * result.stats.total_time);
    result.observed = true;
    auto step = [&](const char* name, auto&& call) {
      const double begin = Now();
      call();
      Add(name, result.engine_name, begin, Now(), export_span);
    };
    step("obs.attribution", [&] {
      result.attribution =
          obs::BuildAttribution(result.engine_name, spec.num_workers,
                                cluster.spans().spans(),
                                result.stats.iterations);
    });
    step("obs.metrics", [&] {
      obs::FillRunMetrics(result.engine_name, result.stats,
                          result.attribution, &cluster.metrics());
      result.metrics = cluster.metrics();
    });
    step("obs.chrome", [&] {
      result.chrome_trace = obs::ChromeTraceString(
          cluster.spans(), &cluster.trace(), spec.num_workers);
    });
    step("obs.binary", [&] {
      result.binary_trace = obs::SerializeBinaryTrace(
          cluster.spans(), &cluster.trace(), spec.num_workers);
    });
  }
  const double end = Now();
  Close(export_span, end);
  current().export_s = end - mark_;
  return result;
}

runtime::ExperimentResult Pass::Run(const runtime::ExperimentSpec& spec,
                                    const runtime::EngineFactory& factory,
                                    const runtime::StragglerFactory& stragglers,
                                    const runtime::FaultFactory& faults) {
  // Built before the clock starts: copying the spec and the factory (and
  // the model it holds) is the benchmark's work, not cluster construction.
  const runtime::ExperimentSpec instrumented = Instrument(spec);
  const runtime::EngineFactory timed = Timed(factory);
  mark_ = Now();
  call_span_ = Open("runtime.experiment", mark_, pass_span_);
  const bool replica = record_.traced && spec.observe;
  runtime::ExperimentResult result =
      replica ? RunObservedTraced(instrumented, timed, stragglers, faults)
              : runtime::RunExperiment(instrumented, timed, stragglers, faults);
  const double end = Now();
  if (!replica) CloseExport(end);
  Close(call_span_, end);
  current().requested_iterations = spec.iterations;

  if (result.observed) {
    // The offline reading path (what fela-detok --chrome does): parse the
    // FELATRB1 transcript and re-render it. It must reproduce the
    // in-process Chrome trace byte for byte. Part of the workload.
    const double begin = Now();
    obs::BinaryTraceData data;
    std::string error;
    const bool parsed = obs::ParseBinaryTrace(result.binary_trace, &data,
                                              &error);
    const std::string rendered = parsed ? obs::RenderChromeTrace(data) : "";
    Add("obs.detok", result.engine_name, begin, Now(), pass_span_);
    if (!parsed) {
      current().failures.push_back("FELATRB1 does not parse: " + error);
    } else if (rendered != result.chrome_trace) {
      current().failures.push_back(
          "FELATRB1 round trip differs from the in-process Chrome trace");
    }
  }
  Check(&current(), result);
  return result;
}

runtime::PidResult Pass::RunPid(const runtime::ExperimentSpec& spec,
                                const runtime::EngineFactory& factory,
                                const runtime::StragglerFactory& stragglers) {
  const runtime::ExperimentSpec instrumented = Instrument(spec);
  const runtime::EngineFactory timed = Timed(factory);
  const size_t first = record_.experiments.size();
  mark_ = Now();
  call_span_ = Open("runtime.pid_experiment", mark_, pass_span_);
  runtime::PidResult out =
      runtime::RunPidExperiment(instrumented, timed, stragglers);
  const double end = Now();
  if (record_.experiments.size() != first + 2) {
    std::fprintf(stderr, "RunPidExperiment ran %zu engines, expected 2\n",
                 record_.experiments.size() - first);
    std::exit(2);
  }
  CloseExport(end);
  Close(call_span_, end);
  record_.experiments[first].requested_iterations = spec.iterations;
  record_.experiments[first + 1].requested_iterations = spec.iterations;
  Check(&record_.experiments[first], out.with_stragglers);
  Check(&record_.experiments[first + 1], out.clean);
  return out;
}

void Pass::Check(ExperimentRecord* r,
                 const runtime::ExperimentResult& result) {
  const double begin = Now();
  r->iterations = result.stats.iteration_count();
  r->ts_failovers = result.stats.faults.ts_failovers;
  r->ts_checkpoints = result.stats.faults.ts_checkpoints;
  if (r->engine == "Fela" &&
      (result.stats.stalled || r->iterations != r->requested_iterations)) {
    r->failures.push_back("Fela completed " + std::to_string(r->iterations) +
                          " of " + std::to_string(r->requested_iterations) +
                          " iterations" +
                          (result.stats.stalled ? " and stalled" : ""));
  }
  if (result.observed) {
    r->binary_bytes = result.binary_trace.size();
    r->chrome_bytes = result.chrome_trace.size();
    testing::AttributionOracle oracle;
    oracle.Check(testing::FuzzSpec{}, result);
    for (const testing::Violation& v : oracle.violations()) {
      r->failures.push_back("attribution: " + v.detail);
    }
  }
  r->fingerprint = runtime::Fnv1a64(runtime::BinaryTranscript(result));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, r->fingerprint);
  fingerprints_ += hex;
  const double end = Now();
  Add("bench.check", r->engine, begin, end, pass_span_);
  record_.check_s += end - begin;
}

void Pass::ExpectSameOutcome(const runtime::ExperimentResult& observed,
                             const runtime::ExperimentResult& twin) {
  const double begin = Now();
  runtime::ExperimentResult bare;  // `observed` minus its observability
  bare.engine_name = observed.engine_name;
  bare.stats = observed.stats;
  bare.average_throughput = observed.average_throughput;
  bare.gpu_utilization = observed.gpu_utilization;
  if (runtime::Fnv1a64(runtime::BinaryTranscript(bare)) !=
      runtime::Fnv1a64(runtime::BinaryTranscript(twin))) {
    current().failures.push_back(
        "observation changed the simulated outcome");
  }
  const double end = Now();
  Add("bench.check", twin.engine_name, begin, end, pass_span_);
  record_.check_s += end - begin;
}

PassRecord Pass::Finish() {
  const double end = Now();
  Close(pass_span_, end);
  record_.wall_s = end - start_ - record_.check_s;
  record_.fingerprint = runtime::Fnv1a64(fingerprints_);
  return std::move(record_);
}

}  // namespace fela::perfbench
