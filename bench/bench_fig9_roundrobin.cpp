// Figure 9: AT and per-iteration delay (PID) in the round-robin
// straggler scenario: worker (iteration mod N) is slowed by d seconds.
//
// Paper reference (VGG19): Fela improves AT by 28.6%~60.0% vs DP,
// 3.01x~4.87x vs MP, 41.61%~84.16% vs HP; and reduces PID by
// 30.35%~68.19% vs DP, 26.00%~64.86% vs HP. PID of Fela can exceed MP
// (MP's idle workers absorb the sleep).

#include <memory>

#include "bench_util.h"
#include "model/zoo.h"

int main(int argc, char** argv) {
  using namespace fela;
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  auto round_robin = [](double d,
                        int n) -> std::unique_ptr<sim::StragglerSchedule> {
    return std::make_unique<sim::RoundRobinStragglers>(n, d);
  };
  bench::StragglerFigure fig;
  fig.title = "Figure 9: Round-Robin Straggler Scenario";
  fig.bench = "fig9_roundrobin";
  fig.gate = "fig9";
  fig.axis = "d";
  fig.axis_header = "d (s)";
  fig.axis_precision = 0;
  fig.at_title = "average throughput (samples/s) vs straggler delay d";
  fig.paper_note =
      "paper (VGG19): Fela PID 30.35%~68.19% below DP, "
      "26.00%~64.86% below HP.";
  // The paper fixes a training batch and sweeps d (VGG19: 2..10s,
  // GoogLeNet: 1..5s). We use the mid-sweep batch for each benchmark.
  fig.cases = {
      {model::zoo::Vgg19(), 512, "VGG19", "", {2, 4, 6, 8, 10}, round_robin},
      {model::zoo::GoogLeNet(), 2048, "GoogLeNet", "", {1, 2, 3, 4, 5},
       round_robin},
  };
  fig.gate_stragglers = [round_robin](int n) { return round_robin(4.0, n); };
  return bench::RunStragglerFigure(opts, fig);
}
