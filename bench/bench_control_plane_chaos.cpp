// Control-plane chaos sweep: throughput retention under partitions, gray
// failures, and Token Server loss, for Fela against the DP and PS-DP
// baselines. Each scenario's retention is its throughput divided by the
// same engine's clean-run throughput, so the comparison is on
// degradation, not workload-shaped absolutes.
//
// The headline contrast is `ts-failstop`: worker 0 — the initial Token
// Server host — dies and never returns. Fela fences the dead TS (its
// tokens in flight return to the server's buckets, which survive the
// host), promotes a standby that takes over the same server, and
// finishes the job on the survivors; DP waits at the barrier forever
// (stalled, retention 0) and PS-DP aborts by design. `ts-crash` is the
// recovering variant, and `chaos` composes a TS crash with a partition
// window and a gray worker.
//
// Emits a machine-readable CSV (control_plane_chaos.csv) beside the
// table and, under --json, BENCH_control_plane_chaos.json.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "model/zoo.h"
#include "sim/faults.h"

namespace {

using fela::sim::CrashEvent;
using fela::sim::FaultSchedule;
using fela::sim::GrayEvent;
using fela::sim::PartitionEvent;
using fela::sim::kNeverTime;

struct Scenario {
  std::string name;
  fela::runtime::FaultFactory faults;  // nullptr = clean baseline
};

std::unique_ptr<FaultSchedule> TsCrash(double crash, double recover) {
  return std::make_unique<fela::sim::ScriptedCrashes>(
      std::vector<CrashEvent>{{/*worker=*/0, crash, recover}});
}

std::unique_ptr<FaultSchedule> MidPartition(int n) {
  // [10s, 25s): the upper half of the cluster loses the lower half
  // (and with it whichever node hosts the coordinator).
  PartitionEvent ev;
  ev.start = 10.0;
  ev.end = 25.0;
  for (int w = 0; w < n / 2; ++w) ev.side_a.push_back(w);
  return std::make_unique<fela::sim::NetworkPartition>(
      std::vector<PartitionEvent>{ev});
}

std::unique_ptr<FaultSchedule> GrayWorker() {
  // Worker 3's control latency inflates 4x for 25 simulated seconds.
  return std::make_unique<fela::sim::GrayFailures>(
      std::vector<GrayEvent>{{/*worker=*/3, 5.0, 30.0, 4.0}});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fela;
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Control-Plane Chaos: Throughput Retention");

  const model::Model model = model::zoo::Vgg19();
  const double kBatch = 512.0;
  const int kWorkers = 8;

  runtime::ExperimentSpec spec;
  spec.total_batch = kBatch;
  spec.iterations = opts.iterations();
  spec.num_workers = kWorkers;
  spec.observe = false;

  const core::FelaConfig cfg =
      suite::TunedFelaConfig(model, kBatch, kWorkers, opts.smoke ? 1 : 5);

  std::vector<Scenario> scenarios;
  scenarios.push_back({"clean", nullptr});
  scenarios.push_back(
      {"gray", [](int) { return GrayWorker(); }});
  scenarios.push_back(
      {"partition", [](int n) { return MidPartition(n); }});
  scenarios.push_back(
      {"ts-crash", [](int) { return TsCrash(6.0, 40.0); }});
  scenarios.push_back(
      {"ts-failstop", [](int) { return TsCrash(6.0, kNeverTime); }});
  scenarios.push_back(
      {"chaos", [](int n) -> std::unique_ptr<FaultSchedule> {
         std::vector<std::unique_ptr<FaultSchedule>> parts;
         parts.push_back(TsCrash(6.0, 40.0));
         parts.push_back(MidPartition(n));
         parts.push_back(GrayWorker());
         return std::make_unique<sim::CompositeFaults>(std::move(parts));
       }});
  if (opts.smoke) {
    // Keep the clean baseline (retention needs it) plus the headline
    // TS scenarios.
    std::vector<Scenario> small;
    for (auto& s : scenarios) {
      if (s.name == "clean" || s.name == "ts-crash" ||
          s.name == "ts-failstop") {
        small.push_back(std::move(s));
      }
    }
    scenarios = std::move(small);
  }

  const std::vector<std::string> engines = {"DP", "PS-DP", "Fela"};
  const std::vector<runtime::EngineFactory> factories = {
      suite::DpFactory(model), suite::PsDpFactory(model),
      suite::FelaFactory(model, cfg)};

  // Stage every (scenario, engine) run on the sweep runner, then render
  // serially in sweep order — table, CSV, and JSON bytes match any
  // --jobs value.
  std::vector<runtime::SweepItem> items;
  for (const Scenario& sc : scenarios) {
    for (const runtime::EngineFactory& factory : factories) {
      items.push_back(runtime::SweepItem{spec, factory,
                                         runtime::NoStragglerFactory(),
                                         sc.faults});
    }
  }
  const std::vector<runtime::ExperimentResult> results =
      runtime::RunSweep(items, opts.jobs);

  std::ofstream csv_file("control_plane_chaos.csv");
  common::CsvWriter csv(csv_file);
  csv.WriteRow({"scenario", "engine", "throughput_samples_per_sec",
                "retention", "stalled", "ts_failovers", "leases_restored",
                "partition_cuts", "partition_heals", "crashes",
                "tokens_reclaimed"});

  obs::BenchReport report("control_plane_chaos");
  std::vector<double> clean_thr(engines.size(), 0.0);
  std::vector<std::string> fault_lines;
  std::printf("\nVGG19 (total batch %g, %d workers), retention = "
              "throughput / same engine's clean throughput:\n\n", kBatch,
              kWorkers);
  std::printf("  %-12s", "scenario");
  for (const std::string& e : engines) std::printf("  %8s %9s", e.c_str(),
                                                   "retain");
  std::printf("\n");
  for (size_t si = 0; si < scenarios.size(); ++si) {
    std::printf("  %-12s", scenarios[si].name.c_str());
    for (size_t ei = 0; ei < engines.size(); ++ei) {
      const runtime::ExperimentResult& r = results[si * engines.size() + ei];
      report.Add(r, static_cast<double>(si));
      if (scenarios[si].name == "clean") {
        clean_thr[ei] = r.average_throughput;
      }
      const double retention = clean_thr[ei] > 0.0
                                   ? r.average_throughput / clean_thr[ei]
                                   : 0.0;
      if (r.stats.stalled) {
        std::printf("  %8s %9s", "stalled", "0.00");
      } else {
        std::printf("  %8.1f %8.2f%%", r.average_throughput,
                    100.0 * retention);
      }
      const runtime::FaultStats& f = r.stats.faults;
      csv.WriteRow({scenarios[si].name, engines[ei],
                    common::StrFormat("%.3f", r.average_throughput),
                    common::StrFormat("%.4f", retention),
                    r.stats.stalled ? "1" : "0",
                    common::StrFormat("%llu", static_cast<unsigned long long>(
                                                  f.ts_failovers)),
                    common::StrFormat("%llu", static_cast<unsigned long long>(
                                                  f.leases_restored)),
                    common::StrFormat("%llu", static_cast<unsigned long long>(
                                                  f.partition_cuts)),
                    common::StrFormat("%llu", static_cast<unsigned long long>(
                                                  f.partition_heals)),
                    common::StrFormat("%llu", static_cast<unsigned long long>(
                                                  f.crashes)),
                    common::StrFormat("%llu", static_cast<unsigned long long>(
                                                  f.tokens_reclaimed))});
      const std::string line = runtime::RenderFaultSummary(
          common::StrFormat("%s %s", scenarios[si].name.c_str(),
                            engines[ei].c_str()),
          r.stats);
      if (!line.empty()) fault_lines.push_back(line);
    }
    std::printf("\n");
  }

  std::printf("\nper-run fault accounting:\n");
  for (const auto& line : fault_lines) std::printf("  %s\n", line.c_str());
  std::printf("\nwrote control_plane_chaos.csv\n");

  // The hardest determinism case this bench adds: TS failover + partition
  // + gray latency must replay byte-identically.
  runtime::ExperimentSpec gate = spec;
  gate.iterations = 4;
  const int rc = bench::VerifyDeterminismGate(
      opts, "control_plane_chaos", gate, suite::FelaFactory(model, cfg),
      runtime::NoStragglerFactory(),
      [](int n) -> std::unique_ptr<FaultSchedule> {
        std::vector<std::unique_ptr<FaultSchedule>> parts;
        parts.push_back(TsCrash(2.0, 12.0));
        PartitionEvent ev;
        ev.start = 4.0;
        ev.end = 8.0;
        for (int w = 0; w < n / 2; ++w) ev.side_a.push_back(w);
        parts.push_back(std::make_unique<sim::NetworkPartition>(
            std::vector<PartitionEvent>{ev}));
        parts.push_back(GrayWorker());
        return std::make_unique<sim::CompositeFaults>(std::move(parts));
      });
  return bench::FinishBench(opts, report) | rc;
}
