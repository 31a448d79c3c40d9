// Fault-injection sweep: throughput vs worker crash probability for Fela
// against the DP baseline (robustness companion to the Fig. 10 straggler
// sweep). Every `window` seconds each worker crashes with probability p
// and stays down `down` seconds. Node 0 — the initial Token Server host
// — is deliberately spared so this sweep measures worker-loss
// degradation in isolation; bench_control_plane_chaos covers losing the
// control plane itself (TS fence/failover). Fela reclaims the crashed worker's token lease, re-grants it,
// shrinks syncs to the survivors, and re-admits the worker when it
// returns; DP must redo the lost per-worker batch while every peer waits
// at the barrier.
//
// Emits a machine-readable CSV (fault_recovery.csv) beside the table.

#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench_util.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "model/zoo.h"
#include "sim/faults.h"

int main(int argc, char** argv) {
  using namespace fela;
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Fault Recovery: Throughput vs Crash Probability");

  const model::Model model = model::zoo::Vgg19();
  const double kBatch = 512.0;
  const int kWorkers = 8;
  const double kWindowSec = 30.0;
  const double kDownSec = 45.0;
  const uint64_t kSeed = 20200420;
  const std::vector<double> probabilities =
      opts.smoke ? std::vector<double>{0.0, 0.1}
                 : std::vector<double>{0.0, 0.02, 0.05, 0.1, 0.2};

  runtime::ExperimentSpec spec;
  spec.total_batch = kBatch;
  spec.iterations = opts.iterations();
  spec.num_workers = kWorkers;
  spec.observe = opts.json;

  const core::FelaConfig cfg =
      suite::TunedFelaConfig(model, kBatch, kWorkers, opts.smoke ? 1 : 5);

  std::ofstream csv_file("fault_recovery.csv");
  common::CsvWriter csv(csv_file);
  csv.WriteRow({"crash_prob", "engine", "throughput_samples_per_sec",
                "crashes", "tokens_reclaimed", "regrants",
                "mean_recovery_latency_sec", "stalled"});

  // Stage the DP and Fela replicas of every probability on the sweep
  // runner (2 independent runs per point), then render serially in
  // sweep order — table, CSV, and JSON bytes match any --jobs value.
  std::vector<runtime::SweepItem> items;
  for (double p : probabilities) {
    runtime::FaultFactory faults = nullptr;
    if (p > 0.0) {
      faults = [p, kWindowSec, kDownSec,
                kSeed](int n) -> std::unique_ptr<sim::FaultSchedule> {
        return std::make_unique<sim::RandomCrashes>(n, p, kWindowSec,
                                                    kDownSec, kSeed);
      };
    }
    items.push_back(runtime::SweepItem{spec, suite::DpFactory(model),
                                       runtime::NoStragglerFactory(), faults});
    items.push_back(runtime::SweepItem{spec, suite::FelaFactory(model, cfg),
                                       runtime::NoStragglerFactory(), faults});
  }
  const std::vector<runtime::ExperimentResult> results =
      runtime::RunSweep(items, opts.jobs);

  obs::BenchReport report("fault_recovery");
  std::vector<runtime::ComparisonRow> rows;
  std::vector<std::string> fault_lines;
  for (size_t i = 0; i < probabilities.size(); ++i) {
    const double p = probabilities[i];
    const runtime::ExperimentResult& dp = results[2 * i];
    const runtime::ExperimentResult& fela = results[2 * i + 1];
    rows.push_back(runtime::ComparisonRow{
        p, {dp.average_throughput, fela.average_throughput}});
    report.Add(dp, p);
    report.Add(fela, p);
    if (fela.observed) {
      std::printf("\n[p=%g]\n", p);
      std::cout << runtime::RenderAttributionTable(fela.attribution);
    }
    for (const auto& r : {dp, fela}) {
      const runtime::FaultStats& f = r.stats.faults;
      csv.WriteRow({common::StrFormat("%g", p), r.engine_name,
                    common::StrFormat("%.3f", r.average_throughput),
                    common::StrFormat("%llu",
                                      static_cast<unsigned long long>(
                                          f.crashes)),
                    common::StrFormat("%llu",
                                      static_cast<unsigned long long>(
                                          f.tokens_reclaimed)),
                    common::StrFormat("%llu",
                                      static_cast<unsigned long long>(
                                          f.regrants)),
                    common::StrFormat("%.3f", f.MeanRecoveryLatency()),
                    r.stats.stalled ? "1" : "0"});
      const std::string line =
          runtime::RenderFaultSummary(
              common::StrFormat("p=%g %s", p, r.engine_name.c_str()),
              r.stats);
      if (!line.empty()) fault_lines.push_back(line);
    }
  }

  std::printf("\nVGG19 (total batch %g, %d workers, crash window %gs, "
              "downtime %gs):\n",
              kBatch, kWorkers, kWindowSec, kDownSec);
  std::cout << runtime::RenderComparisonTable(
      "average throughput (samples/s) vs per-window crash probability p",
      "p", {"DP", "Fela"}, rows, /*fela_column=*/1);
  std::printf("\nper-run fault accounting:\n");
  for (const auto& line : fault_lines) std::printf("  %s\n", line.c_str());
  std::printf("\nwrote fault_recovery.csv\n");
  // The hardest determinism case: crashes + reclamation + re-admission
  // must replay byte-identically, not just the fault-free path.
  runtime::ExperimentSpec gate = spec;
  gate.iterations = 4;
  gate.observe = false;
  const int rc = bench::VerifyDeterminismGate(
      opts, "fault_recovery", gate, suite::FelaFactory(model, cfg),
      runtime::NoStragglerFactory(),
      [kSeed](int n) -> std::unique_ptr<sim::FaultSchedule> {
        return std::make_unique<sim::RandomCrashes>(n, 0.2, 2.0, 0.5, kSeed);
      });
  return bench::FinishBench(opts, report) | rc;
}
