// Straggler mitigation demo: runs Fela and the DP baseline through a
// round-robin straggler scenario, prints the Eq. 4 per-iteration delays,
// and then replays two Fela iterations with the scheduling trace enabled
// so you can watch helpers steal the straggler's tokens (§III-E).
//
//   ./build/examples/straggler_mitigation

#include <cstdio>

#include "core/fela_engine.h"
#include "model/zoo.h"
#include "runtime/experiment.h"
#include "suite/suite.h"

int main() {
  using namespace fela;

  const model::Model m = model::zoo::Vgg19();
  const double batch = 512;
  const double delay = 6.0;

  auto stragglers = [delay](int n) {
    return std::make_unique<sim::RoundRobinStragglers>(n, delay);
  };

  std::printf("Scenario: 8 workers, round-robin straggler slowed by %gs, "
              "VGG19 @ total batch %g\n\n", delay, batch);

  // Elastic tuning happens in the straggler environment (§IV-B is
  // in-situ): the tuner trades raw speed for finer-grained tokens that
  // helpers can steal.
  const core::FelaConfig cfg = suite::TunedFelaConfig(
      m, batch, 8, 5, sim::Calibration::Default(), stragglers);
  std::printf("tuned config under stragglers: %s\n\n", cfg.ToString().c_str());

  runtime::ExperimentSpec spec;
  spec.total_batch = batch;
  spec.iterations = 24;
  const auto dp = RunPidExperiment(spec, suite::DpFactory(m), stragglers);
  const auto fela =
      RunPidExperiment(spec, suite::FelaFactory(m, cfg), stragglers);

  std::printf("DP  : AT %.1f samples/s, PID %.2fs (the BSP barrier pays the "
              "full %gs)\n",
              dp.with_stragglers.average_throughput, dp.per_iteration_delay,
              delay);
  std::printf("Fela: AT %.1f samples/s, PID %.2fs (%.0f%% less delay)\n\n",
              fela.with_stragglers.average_throughput,
              fela.per_iteration_delay,
              100.0 * (1 - fela.per_iteration_delay / dp.per_iteration_delay));

  // Replay with tracing to show the token schedule around the straggler.
  runtime::Cluster cluster(8, sim::Calibration::Default(), stragglers(8));
  cluster.trace().set_enabled(true);
  core::FelaEngine engine(&cluster, m, cfg, batch);
  engine.Run(1);

  std::printf("token-level timeline of iteration 0 (worker 0 sleeps %gs; "
              "stolen grants marked):\n", delay);
  int shown = 0;
  for (const auto& e : cluster.trace().events()) {
    const bool interesting =
        e.kind == sim::TraceKind::kStragglerSleep ||
        e.kind == sim::TraceKind::kIterationEnd ||
        (e.kind == sim::TraceKind::kTokenGrant &&
         (e.detail.find("stolen=1") != std::string::npos || e.node == 0));
    if (!interesting) continue;
    std::printf("  [%8.3fs] w%-2d %-14s %s\n", e.time, e.node,
                sim::TraceKindName(e.kind), e.detail.c_str());
    if (++shown > 40) break;
  }
  std::printf("\nhelper steals this iteration: %lu (workers emptying their "
              "own STB and fetching the straggler's tokens)\n",
              static_cast<unsigned long>(engine.token_server().stats().steals));
  return 0;
}
