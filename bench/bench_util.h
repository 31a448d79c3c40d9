#ifndef FELA_BENCH_BENCH_UTIL_H_
#define FELA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.h"
#include "model/zoo.h"
#include "runtime/bench_json.h"
#include "runtime/determinism.h"
#include "runtime/report.h"
#include "runtime/sweep.h"
#include "suite/suite.h"

namespace fela::bench {

/// Iterations per measured configuration. The paper trains every
/// configuration for 100 iterations (Eq. 3).
inline constexpr int kIterations = 100;

/// Common command-line switches shared by the quantitative benches:
///   --json   write BENCH_<name>.json (per-engine iteration times plus,
///            for observed runs, the attribution report) and turn
///            observability on for the measured runs;
///   --smoke  shrink the sweep to one tiny point with a few iterations
///            (CI-sized; used by the tier-1 smoke test);
///   --verify-determinism
///            before printing results, run a representative
///            configuration twice and fail (non-zero exit) unless the
///            two transcripts are byte-identical (runtime/determinism.h);
///   --jobs N run the sweep's independent experiment replicas on N
///            threads (N = 0 means hardware concurrency). Each replica
///            stays single-threaded and deterministic, and results are
///            rendered in sweep order, so every byte of stdout, CSV,
///            and BENCH_*.json is identical to a --jobs 1 run.
struct BenchOptions {
  bool json = false;
  bool smoke = false;
  bool verify_determinism = false;
  int jobs = 1;

  /// Sweep iterations honoring --smoke.
  int iterations() const { return smoke ? 3 : kIterations; }
  /// First sweep point only under --smoke.
  template <typename T>
  std::vector<T> Sweep(const std::vector<T>& full) const {
    if (!smoke || full.empty()) return full;
    return {full.front()};
  }
  /// A runner honoring --jobs; benches stage per-point tasks on it.
  runtime::SweepRunner Runner() const { return runtime::SweepRunner(jobs); }
};

inline BenchOptions ParseBenchArgs(int argc, char** argv) {
  BenchOptions opts;
  auto parse_jobs = [&opts](const char* value) {
    const int n = std::atoi(value);
    opts.jobs = n <= 0 ? runtime::SweepRunner::HardwareJobs() : n;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) opts.json = true;
    else if (std::strcmp(argv[i], "--smoke") == 0) opts.smoke = true;
    else if (std::strcmp(argv[i], "--verify-determinism") == 0)
      opts.verify_determinism = true;
    else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc)
      parse_jobs(argv[++i]);
    else if (std::strncmp(argv[i], "--jobs=", 7) == 0)
      parse_jobs(argv[i] + 7);
    else std::fprintf(stderr, "ignoring unknown flag %s\n", argv[i]);
  }
  return opts;
}

/// Writes the report when --json was passed, then re-parses the written
/// file and validates it against the bench schema, so a bench run under
/// --json fails loudly (non-zero exit) if the artifact ever drifts.
/// Returns the bench's exit code.
inline int FinishBench(const BenchOptions& opts,
                       const obs::BenchReport& report) {
  if (!opts.json) return 0;
  const std::string path = report.WriteFile();
  if (path.empty()) {
    std::fprintf(stderr, "failed to write %s\n",
                 obs::BenchJsonPath(report.name()).c_str());
    return 1;
  }
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  common::Json doc;
  std::string error;
  if (!common::Json::Parse(text.str(), &doc, &error) ||
      !obs::ValidateBenchReportJson(doc, &error)) {
    std::fprintf(stderr, "%s failed validation: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("\nwrote %s (%zu result rows)\n", path.c_str(), report.size());
  return 0;
}

/// Run-twice determinism gate for experiment-driven benches. No-op
/// unless --verify-determinism was passed; then runs `spec` twice
/// (observability forced on; the replicas run concurrently under
/// --jobs > 1) and returns 1 — the bench's failure exit — when the
/// transcripts diverge, printing the first divergent line.
inline int VerifyDeterminismGate(
    const BenchOptions& opts, const std::string& label,
    const runtime::ExperimentSpec& spec,
    const runtime::EngineFactory& engine,
    const runtime::StragglerFactory& stragglers,
    const runtime::FaultFactory& faults = nullptr) {
  if (!opts.verify_determinism) return 0;
  const runtime::DeterminismReport report =
      runtime::VerifyDeterminism(spec, engine, stragglers, faults, opts.jobs);
  std::printf("determinism[%s]: %s\n", label.c_str(),
              report.ToString().c_str());
  return report.deterministic ? 0 : 1;
}

/// Determinism gate for analytic (simulation-free) benches: evaluates
/// `render` twice and byte-compares the output. No-op without
/// --verify-determinism.
inline int VerifyRenderDeterminism(const BenchOptions& opts,
                                   const std::string& label,
                                   const std::function<std::string()>& render) {
  if (!opts.verify_determinism) return 0;
  const std::string first = render();
  const std::string second = render();
  const bool same = first == second;
  std::printf("determinism[%s]: %s hash=%016llx\n", label.c_str(),
              same ? "deterministic" : "DIVERGED",
              static_cast<unsigned long long>(runtime::Fnv1a64(first)));
  return same ? 0 : 1;
}

/// The paper's batch sweeps. VGG19 follows Fig. 6's 64..1024; GoogLeNet
/// uses a larger range (its 32x32 inputs train far more samples/s).
inline const std::vector<double>& Vgg19Batches() {
  static const std::vector<double> kBatches = {64, 128, 256, 512, 1024};
  return kBatches;
}
inline const std::vector<double>& GoogLeNetBatches() {
  static const std::vector<double> kBatches = {128, 256, 512, 1024, 2048};
  return kBatches;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Prints the paper-style "outperforms X by a%~b" summary line.
inline void PrintGainSummary(const std::string& model,
                             const std::vector<runtime::ComparisonRow>& rows) {
  for (size_t other = 0; other + 1 < suite::EngineNames().size(); ++other) {
    const auto [lo, hi] = runtime::GainRange(rows, suite::kFelaColumn, other);
    std::printf("  %s: Fela outperforms %s by %s ~ %s\n", model.c_str(),
                suite::EngineNames()[other].c_str(),
                runtime::FormatGain(lo).c_str(),
                runtime::FormatGain(hi).c_str());
  }
}

/// One model of a straggler figure: its training batch, the swept
/// straggler parameter, and the schedule each sweep point runs under.
struct StragglerCase {
  model::Model model;
  double batch = 0.0;
  const char* label = "";
  /// Printed after "(total batch B" in the case's heading; "" for none.
  std::string heading_note;
  std::vector<double> sweep;
  /// The straggler schedule at sweep point `x` for an `n`-worker cluster.
  std::function<std::unique_ptr<sim::StragglerSchedule>(double x, int n)>
      stragglers;
};

/// A straggler figure (Figs. 9 and 10): AT and per-iteration delay of
/// DP, MP, HP and in-situ tuned Fela over one straggler parameter.
struct StragglerFigure {
  std::string title;
  std::string bench;  // BENCH_<bench>.json
  std::string gate;   // determinism[<gate>]
  const char* axis = "";  // the swept parameter's name, e.g. "d"
  std::string axis_header;
  int axis_precision = 0;  // decimals of the PID table's first column
  std::string at_title;
  std::string paper_note;
  std::vector<StragglerCase> cases;
  /// The determinism gate's schedule (VGG19, batch 256, 4 iterations).
  runtime::StragglerFactory gate_stragglers;
};

/// Runs `fig`: stages every (case, sweep point) on the sweep runner, then
/// renders serially in sweep order, so output is byte-identical for any
/// --jobs. --smoke keeps the first case and its first sweep point.
/// Returns the bench's exit code.
inline int RunStragglerFigure(const BenchOptions& opts, StragglerFigure fig) {
  PrintHeader(fig.title);
  if (opts.smoke) fig.cases.erase(fig.cases.begin() + 1, fig.cases.end());

  struct Point {
    size_t case_index;
    double x;
    runtime::PidResult dp, mp, hp, fela;
  };
  std::vector<Point> points;
  for (size_t ci = 0; ci < fig.cases.size(); ++ci) {
    for (double x : opts.Sweep(fig.cases[ci].sweep)) {
      points.push_back(Point{ci, x, {}, {}, {}, {}});
    }
  }
  runtime::SweepRunner runner = opts.Runner();
  for (Point& pt : points) {
    runner.Add([&opts, &fig, &pt] {
      const StragglerCase& mc = fig.cases[pt.case_index];
      const double x = pt.x;
      const runtime::StragglerFactory stragglers = [&mc, x](int n) {
        return mc.stragglers(x, n);
      };
      runtime::ExperimentSpec spec;
      spec.total_batch = mc.batch;
      spec.iterations = opts.iterations();
      spec.observe = opts.json;
      // Elastic tuning happens in-situ: the warm-up sees the stragglers.
      const auto cfg = suite::TunedFelaConfig(
          mc.model, mc.batch, 8, opts.smoke ? 1 : 5,
          sim::Calibration::Default(), stragglers);

      auto pid_of = [&](const runtime::EngineFactory& f) {
        return runtime::RunPidExperiment(spec, f, stragglers);
      };
      pt.dp = pid_of(suite::DpFactory(mc.model));
      pt.mp = pid_of(suite::MpFactory(mc.model));
      pt.hp = pid_of(suite::HpFactory(mc.model));
      pt.fela = pid_of(suite::FelaFactory(mc.model, cfg));
    });
  }
  runner.RunAll();

  obs::BenchReport report(fig.bench);
  size_t next_point = 0;
  for (size_t ci = 0; ci < fig.cases.size(); ++ci) {
    const StragglerCase& mc = fig.cases[ci];
    std::vector<runtime::ComparisonRow> at_rows;
    std::vector<runtime::ComparisonRow> pid_rows;
    for (; next_point < points.size() && points[next_point].case_index == ci;
         ++next_point) {
      const Point& pt = points[next_point];
      const auto& dp = pt.dp;
      const auto& mp = pt.mp;
      const auto& hp = pt.hp;
      const auto& fela = pt.fela;
      for (const auto* pr : {&dp, &mp, &hp, &fela}) {
        report.Add(pr->with_stragglers, pt.x);
      }
      if (fela.with_stragglers.observed) {
        std::printf("\n[%s %s=%g]\n", mc.label, fig.axis, pt.x);
        std::cout << runtime::RenderAttributionTable(
            fela.with_stragglers.attribution);
      }
      at_rows.push_back(runtime::ComparisonRow{
          pt.x,
          {dp.with_stragglers.average_throughput,
           mp.with_stragglers.average_throughput,
           hp.with_stragglers.average_throughput,
           fela.with_stragglers.average_throughput}});
      pid_rows.push_back(runtime::ComparisonRow{
          pt.x,
          {dp.per_iteration_delay, mp.per_iteration_delay,
           hp.per_iteration_delay, fela.per_iteration_delay}});
    }

    std::printf("\n%s (total batch %g%s):\n", mc.label, mc.batch,
                mc.heading_note.c_str());
    std::cout << runtime::RenderComparisonTable(
        fig.at_title, fig.axis_header, suite::EngineNames(), at_rows,
        suite::kFelaColumn);
    PrintGainSummary(mc.label, at_rows);

    common::TablePrinter pid_table({fig.axis_header, "DP PID", "MP PID",
                                    "HP PID", "Fela PID", "Fela vs DP",
                                    "Fela vs HP"});
    for (const auto& row : pid_rows) {
      pid_table.AddRow(
          {common::TablePrinter::Num(row.x, fig.axis_precision),
           common::TablePrinter::Num(row.values[0], 2),
           common::TablePrinter::Num(row.values[1], 2),
           common::TablePrinter::Num(row.values[2], 2),
           common::TablePrinter::Num(row.values[3], 2),
           common::TablePrinter::Percent(1 - row.values[3] / row.values[0]),
           common::TablePrinter::Percent(1 - row.values[3] / row.values[2])});
    }
    std::printf("\nper-iteration delay (Eq. 4, seconds):\n");
    pid_table.Print(std::cout);
  }
  std::printf("\n%s\n", fig.paper_note.c_str());
  runtime::ExperimentSpec gate;
  gate.total_batch = 256;
  gate.iterations = 4;
  const int rc = VerifyDeterminismGate(
      opts, fig.gate, gate,
      suite::FelaFactory(model::zoo::Vgg19(),
                         core::FelaConfig::Defaults(3, 8)),
      fig.gate_stragglers);
  return FinishBench(opts, report) | rc;
}

}  // namespace fela::bench

#endif  // FELA_BENCH_BENCH_UTIL_H_
