// Figure 10: AT and per-iteration delay in the probability-based
// straggler scenario: every iteration each worker independently becomes
// a straggler with probability p (VGG19: d = 6s, GoogLeNet: d = 3s).
//
// Paper reference (VGG19): Fela improves AT by 19.58%~33.91% vs DP,
// 2.70x~4.25x vs MP, 27.13%~80.29% vs HP; PID reduced 23.23%~51.36%
// vs DP and 6.97%~65.12% vs HP.

#include <memory>

#include "bench_util.h"
#include "common/string_util.h"
#include "model/zoo.h"

int main(int argc, char** argv) {
  using namespace fela;
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  const uint64_t kSeed = 20200420;  // ICDE 2020 :-)
  auto probability = [kSeed](double p, double d)
      -> std::unique_ptr<sim::StragglerSchedule> {
    return std::make_unique<sim::ProbabilityStragglers>(p, d, kSeed);
  };
  // A case whose workers straggle by `d` seconds, swept over p.
  auto probability_case = [probability](model::Model model, double batch,
                                        const char* label, double d) {
    return bench::StragglerCase{
        std::move(model), batch, label, common::StrFormat(", d = %gs", d),
        {0.1, 0.2, 0.3, 0.4, 0.5},
        [probability, d](double p, int) { return probability(p, d); }};
  };
  bench::StragglerFigure fig;
  fig.title = "Figure 10: Probability-Based Straggler Scenario";
  fig.bench = "fig10_probability";
  fig.gate = "fig10";
  fig.axis = "p";
  fig.axis_header = "p";
  fig.axis_precision = 1;
  fig.at_title = "average throughput (samples/s) vs straggler probability p";
  fig.paper_note =
      "paper (VGG19): Fela PID 23.23%~51.36% below DP, 6.97%~65.12% "
      "below HP.";
  fig.cases = {
      probability_case(model::zoo::Vgg19(), 512, "VGG19", 6.0),
      probability_case(model::zoo::GoogLeNet(), 2048, "GoogLeNet", 3.0),
  };
  fig.gate_stragglers = [probability](int) { return probability(0.3, 6.0); };
  return bench::RunStragglerFigure(opts, fig);
}
