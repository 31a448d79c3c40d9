// Microbenchmarks of the scheduling-path data structures (google-benchmark):
// event queue churn, token-bucket selection under ADS, locality scoring,
// and a full simulated Fela iteration. These bound the *scheduling*
// overhead Fela adds per token — the paper argues it is negligible next
// to training compute.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/tokenize.h"
#include "core/fela_engine.h"
#include "core/token_bucket.h"
#include "model/zoo.h"
#include "runtime/cluster.h"
#include "runtime/determinism.h"
#include "runtime/sweep.h"
#include "sim/simulator.h"
#include "suite/suite.h"

namespace {

using namespace fela;

void BM_EventQueuePushPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < n; ++i) {
      q.Push(static_cast<double>((i * 2654435761u) % 1000), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(1024)->Arg(16384);

// Cancel-dominated churn: the retry-timer pattern (arm a future event,
// cancel it, re-arm) over a base of long-lived events. Exercises the
// O(1) slab cancel and the compaction that keeps the heap from
// accreting dead entries.
void BM_EventQueueCancelHeavy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < 16; ++i) q.Push(1e9 + i, [] {});
    for (int i = 0; i < n; ++i) {
      auto id = q.Push(1e6 + i, [] {});
      benchmark::DoNotOptimize(q.Cancel(id));
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.Pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueCancelHeavy)->Arg(1024)->Arg(16384);

// The GPipe shape the FIFO chains serve: eight devices complete work in
// order, and one of them (pipeline stage 0, which is handed every
// micro-batch at once) holds 512 queued completions. Each popped
// completion queues its device's next one behind the device's last, as
// GpuDevice::Enqueue does, so the heap holds one entry per device while
// 519 events are pending.
void BM_EventQueueFifoChain(benchmark::State& state) {
  constexpr int kDevices = 8;
  constexpr int kQueued = 512;
  sim::EventQueue q;
  std::array<sim::EventId, kDevices> last{};
  std::array<double, kDevices> last_time{};
  int fired = 0;
  const auto enqueue = [&](int d) {
    last_time[d] += 1.0 + 0.37 * d;  // per-device kernel time
    last[d] = q.PushAfter(last[d], last_time[d], [&fired, d] { fired = d; });
  };
  for (int i = 0; i < kQueued; ++i) enqueue(0);
  for (int d = 1; d < kDevices; ++d) enqueue(d);
  for (auto _ : state) {
    auto [when, fn] = q.Pop();
    fn();
    benchmark::DoNotOptimize(when);
    enqueue(fired);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["heap_entries"] = static_cast<double>(q.heap_entries());
}
BENCHMARK(BM_EventQueueFifoChain);

void BM_SimulatorEventChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    int remaining = n;
    std::function<void()> tick = [&] {
      if (--remaining > 0) sim.Schedule(1e-6, tick);
    };
    sim.Schedule(0.0, tick);
    sim.Run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimulatorEventChain)->Arg(1000)->Arg(100000);

void BM_TokenBucketAdsTake(benchmark::State& state) {
  const int tokens = static_cast<int>(state.range(0));
  core::InfoMapping info;
  for (int i = 0; i < tokens; ++i) {
    info.RecordCompleted(i, i % 8);
  }
  for (auto _ : state) {
    state.PauseTiming();
    core::TokenBucket bucket;
    for (int i = 0; i < tokens; ++i) {
      core::Token t;
      t.id = tokens + i;
      t.level = 1;
      t.batch = 32;
      t.deps = {{i, 16.0}, {(i + 1) % tokens, 16.0}};
      bucket.Add(std::move(t));
    }
    state.ResumeTiming();
    while (!bucket.empty()) {
      benchmark::DoNotOptimize(bucket.Take(3, info, {1}, true));
    }
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_TokenBucketAdsTake)->Arg(8)->Arg(64)->Arg(512);

void BM_LocalityScore(benchmark::State& state) {
  core::InfoMapping info;
  for (int i = 0; i < 64; ++i) info.RecordCompleted(i, i % 8);
  std::vector<core::TokenDep> deps;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    deps.push_back({i, 16.0});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(info.LocalityScore(3, deps));
  }
}
BENCHMARK(BM_LocalityScore)->Arg(2)->Arg(8)->Arg(32);

void BM_FelaFullIteration(benchmark::State& state) {
  const double batch = static_cast<double>(state.range(0));
  const model::Model m = model::zoo::Vgg19();
  for (auto _ : state) {
    runtime::Cluster cluster(8, sim::Calibration::Default(), nullptr);
    core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
    cfg.weights = {1, 2, 4};
    core::FelaEngine engine(&cluster, m, cfg, batch);
    benchmark::DoNotOptimize(engine.Run(1).total_time);
  }
}
BENCHMARK(BM_FelaFullIteration)->Arg(128)->Arg(1024);

// Same iteration with the observability layer armed: spans + trace
// recorded end-to-end. Compare against BM_FelaFullIteration to see the
// cost of observation; the disabled path must stay within noise of the
// pre-observability engine (a null-sink check per hook, no allocation).
void BM_FelaFullIterationObserved(benchmark::State& state) {
  const double batch = static_cast<double>(state.range(0));
  const model::Model m = model::zoo::Vgg19();
  for (auto _ : state) {
    runtime::Cluster cluster(8, sim::Calibration::Default(), nullptr);
    cluster.SetObservability(true);
    core::FelaConfig cfg = core::FelaConfig::Defaults(3, 8);
    cfg.weights = {1, 2, 4};
    core::FelaEngine engine(&cluster, m, cfg, batch);
    benchmark::DoNotOptimize(engine.Run(1).total_time);
    benchmark::DoNotOptimize(cluster.spans().size());
  }
}
BENCHMARK(BM_FelaFullIterationObserved)->Arg(128)->Arg(1024);

// The span sink's hot path in isolation: ring-buffer emit of a span
// carrying a tokenized detail (the production shape after the FELA_TOK
// migration — a trivially-copyable struct store, no allocation),
// including wrap-around eviction once the sink is full.
void BM_SpanSinkEmit(benchmark::State& state) {
  obs::SpanSink sink(/*capacity=*/4096);
  sink.set_enabled(true);
  double t = 0.0;
  int it = 0;
  for (auto _ : state) {
    sink.Emit(obs::Span{
        0, obs::Phase::kCompute, t, t + 1.0, it,
        common::TokenizedDetail(FELA_TOK("it=%d b=%g"), it, t)});
    t += 1.0;
    ++it;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SpanSinkEmit);

// The trace recorder's *enabled* tokenized path: what FELA_TRACE costs
// when tracing is on — a fixed-width record store, no formatting.
void BM_TraceRecorderRecord(benchmark::State& state) {
  sim::TraceRecorder trace(/*capacity=*/4096);
  trace.set_enabled(true);
  double t = 0.0;
  int it = 0;
  for (auto _ : state) {
    FELA_TRACE(&trace, t, 0, sim::TraceKind::kTokenGrant,
               FELA_TOK("Token_%lld b=%g"), static_cast<long long>(it), t);
    t += 1.0;
    ++it;
  }
  benchmark::DoNotOptimize(trace.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceRecorderRecord);

/// One observed GoogLeNet run shared by the transcript benches (built
/// once — the benches measure transcript serialization, not the run).
const runtime::ExperimentResult& ObservedResultForTranscripts() {
  static const runtime::ExperimentResult* result = [] {
    runtime::ExperimentSpec spec;
    spec.total_batch = 256;
    spec.iterations = 4;
    spec.observe = true;
    return new runtime::ExperimentResult(runtime::RunExperiment(
        spec,
        suite::FelaFactory(model::zoo::GoogLeNet(),
                           core::FelaConfig::Defaults(3, 8)),
        runtime::NoStragglerFactory()));
  }();
  return *result;
}

// Binary determinism transcript (FELADET1 + FELATRB1): what
// VerifyDeterminism and the bench --verify-determinism gates hash on
// every run pair. Baseline pins >= 3x over BM_TranscriptWriteText.
void BM_TranscriptWrite(benchmark::State& state) {
  const runtime::ExperimentResult& result = ObservedResultForTranscripts();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::BinaryTranscript(result));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranscriptWrite);

// The canonical text transcript (StrFormat per scalar + rendered trace
// text), now only produced on divergence for human diffing.
void BM_TranscriptWriteText(benchmark::State& state) {
  const runtime::ExperimentResult& result = ObservedResultForTranscripts();
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::DeterminismTranscript(result));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TranscriptWriteText);

void BM_BinPartition(benchmark::State& state) {
  const model::Model m = model::zoo::Vgg19();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model::BinPartitioner().Partition(
        m, model::ProfileRepository::Default()));
  }
}
BENCHMARK(BM_BinPartition);

}  // namespace

// Hand-rolled BENCHMARK_MAIN(): google-benchmark rejects flags it does
// not know, so the sweep-recipe flags shared by the other benches
// (--verify-determinism, --jobs N, and the no-ops --json/--smoke) are
// stripped from argv before benchmark::Initialize sees them.
int main(int argc, char** argv) {
  bool verify = false;
  int jobs = 1;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify-determinism") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::atoi(argv[i] + 7);
    } else if (std::strcmp(argv[i], "--json") == 0 ||
               std::strcmp(argv[i], "--smoke") == 0) {
      // accepted for uniformity with the sweep benches; no effect here
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (jobs <= 0) jobs = fela::runtime::SweepRunner::HardwareJobs();
  if (verify) {
    using namespace fela;
    runtime::ExperimentSpec spec;
    spec.total_batch = 256;
    spec.iterations = 4;
    const runtime::DeterminismReport report = runtime::VerifyDeterminism(
        spec,
        suite::FelaFactory(model::zoo::GoogLeNet(),
                           core::FelaConfig::Defaults(3, 8)),
        runtime::NoStragglerFactory(), /*fault_factory=*/nullptr, jobs);
    std::printf("determinism[micro_core]: %s\n", report.ToString().c_str());
    if (!report.deterministic) return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
