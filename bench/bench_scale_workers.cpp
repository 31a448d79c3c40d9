// Scale-out sweep: one Fela job at 8 -> 4096 workers on a racked
// two-tier fabric (32-node racks, 40 Gbps uplinks), weak-scaled so every
// worker trains a constant share of the batch. The point of the bench is
// the simulator itself: the topology-dispatched hierarchical collective
// schedules O(P) transfers per sync where the flat ring schedules
// 2P(P-1), and the per-rack Token Server sub-distributors serve a grant
// in O(rack_size), serving parked waiters in one pass that stops when
// the buckets run dry. The bench fails (non-zero exit) if transfers per
// iteration ever grow super-linearly, or if any point makes more than
// two grant attempts (TryGrant calls) per grant — the signature of a
// waiter re-scan. Both gates read deterministic counters, so they arm
// under --smoke and any --jobs. ts_shards=1 comparison points at 256
// and 1024 keep the monolithic trajectory visible.
//
// Deterministic outputs (stdout table, scale_workers.csv, and
// BENCH_scale_workers.json under --json) carry only simulated
// quantities, so they byte-match across --jobs values for the nightly
// serial-vs-parallel diff. Wall-clock rates (iterations/sec, whole-run
// wall µs per event and per grant) and attempts per grant go to stderr,
// and to the machine-specific baseline artifact under
// --baseline-out=PATH — regenerate it like BENCH_micro_core.json, on
// the reference machine.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/csv.h"
#include "common/string_util.h"
#include "common/units.h"
#include "core/fela_engine.h"
#include "model/zoo.h"
#include "sim/topology.h"

namespace {

// fela-lint: allow(wall-clock): this bench measures the simulator's own
// wall-clock rate (the bench/baselines/ trajectory metric); the values
// only reach stderr and the machine-specific baseline artifact, never a
// deterministic output.
using WallClock = std::chrono::steady_clock;

/// Per-point deterministic counters captured by the post-run probe, plus
/// the wall-clock window from engine construction to probe time.
struct PointStats {
  uint64_t events = 0;
  uint64_t transfers = 0;
  uint64_t cross_rack = 0;
  uint64_t grants = 0;
  uint64_t grant_attempts = 0;
  int ts_shards = 0;  // resolved shard count (auto -> rack count)
  WallClock::time_point start;
  double wall_seconds = 0.0;
};

/// One sweep point: worker count plus the ts_shards override (0 = auto,
/// one sub-distributor per rack; 1 = the monolithic pre-shard server).
struct PointSpec {
  int workers = 0;
  int ts_shards = 0;
};

/// Per-worker samples per iteration: weak scaling, so the per-point
/// workload grows with P and iterations/sec isolates the simulator's
/// scaling behaviour.
constexpr double kSamplesPerWorker = 16.0;

fela::sim::Topology RackedTopology() {
  // 32-node racks with 40 Gbps uplinks and 5 us per ToR<->agg hop: a
  // mildly oversubscribed (8:1 at 10 Gbps NICs) production-shaped pod.
  return fela::sim::Topology::Racked(
      32, fela::common::GbpsToBytesPerSec(40.0), 5e-6);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fela;
  std::string baseline_out;
  {
    // Peel the bench-specific flag before the shared parser (which warns
    // on unknown flags).
    std::vector<char*> rest;
    for (int i = 0; i < argc; ++i) {
      if (std::strncmp(argv[i], "--baseline-out=", 15) == 0) {
        baseline_out = argv[i] + 15;
      } else {
        rest.push_back(argv[i]);
      }
    }
    argc = static_cast<int>(rest.size());
    for (int i = 0; i < argc; ++i) argv[i] = rest[static_cast<size_t>(i)];
  }
  const bench::BenchOptions opts = bench::ParseBenchArgs(argc, argv);
  bench::PrintHeader("Worker Scale-Out: Hierarchical Sync at 8 -> 4096");

  const model::Model model = model::zoo::Vgg19();
  // The engine partitions with the bin partitioner; the untuned uniform
  // config just needs one weight per resulting level.
  const int num_levels = static_cast<int>(
      model::BinPartitioner()
          .Partition(model, model::ProfileRepository::Default())
          .size());
  const std::vector<int> worker_counts =
      opts.Sweep<int>({8, 64, 256, 1024, 4096});
  const int iterations = opts.smoke ? 2 : 20;

  // The auto-sharded trajectory, then ts_shards=1 twins at 256 and 1024
  // workers so the nightly numbers keep the monolithic server's cost
  // curve next to the sharded one (at 4096 the monolith alone would
  // take seconds).
  std::vector<PointSpec> point_specs;
  for (int workers : worker_counts) point_specs.push_back({workers, 0});
  for (int workers : worker_counts) {
    if (workers == 256 || workers == 1024) point_specs.push_back({workers, 1});
  }

  // One probe slot per point, allocated up front so the staged lambdas
  // hold stable pointers across the (possibly parallel) sweep.
  std::vector<PointStats> points(point_specs.size());
  std::vector<runtime::SweepItem> items;
  for (size_t i = 0; i < point_specs.size(); ++i) {
    const int workers = point_specs[i].workers;
    runtime::ExperimentSpec spec;
    spec.total_batch = kSamplesPerWorker * workers;
    spec.iterations = iterations;
    spec.num_workers = workers;
    spec.calibration.topology = RackedTopology();
    spec.observe = false;
    PointStats* slot = &points[i];
    spec.post_run_probe = [slot](const runtime::Engine& engine,
                                 runtime::Cluster& cluster) {
      slot->events = cluster.simulator().events_processed();
      slot->transfers = cluster.fabric().data_transfer_count();
      slot->cross_rack = cluster.fabric().cross_rack_transfer_count();
      if (const auto* fela = dynamic_cast<const core::FelaEngine*>(&engine)) {
        const core::TokenServer::Stats ts = fela->ts_stats();
        slot->grants = ts.grants;
        slot->grant_attempts = ts.grant_attempts;
        slot->ts_shards = fela->ts_shard_count();
      }
      slot->wall_seconds =
          std::chrono::duration<double>(WallClock::now() - slot->start)
              .count();
    };
    core::FelaConfig cfg = core::FelaConfig::Defaults(num_levels, workers);
    cfg.ts_shards = point_specs[i].ts_shards;
    // Wrap the factory to stamp the wall-clock start right before engine
    // construction: each point runs single-threaded, so the window is
    // valid under any --jobs.
    runtime::EngineFactory factory =
        [slot, base = suite::FelaFactory(model, cfg)](
            runtime::Cluster& cluster, double total_batch) {
          slot->start = WallClock::now();
          return base(cluster, total_batch);
        };
    items.push_back(runtime::SweepItem{spec, std::move(factory),
                                       runtime::NoStragglerFactory(),
                                       nullptr});
  }
  const std::vector<runtime::ExperimentResult> results =
      runtime::RunSweep(items, opts.jobs);

  std::ofstream csv_file("scale_workers.csv");
  common::CsvWriter csv(csv_file);
  csv.WriteRow({"workers", "ts_shards", "iterations", "sim_seconds",
                "throughput_samples_per_sec", "events_per_iteration",
                "transfers_per_iteration", "cross_rack_per_iteration"});

  obs::BenchReport report("scale_workers");
  common::Json baseline_rows = common::Json::Array();
  std::printf("\nVGG19, weak-scaled (%.0f samples/worker), racked fabric "
              "(32/rack, 40 Gbps uplinks), %d iterations:\n\n",
              kSamplesPerWorker, iterations);
  std::printf("  %8s %7s %12s %14s %12s %12s %12s\n", "workers", "shards",
              "sim_s", "samples/s", "events/iter", "xfers/iter", "xrack/iter");
  int rc = 0;
  for (size_t i = 0; i < point_specs.size(); ++i) {
    const int workers = point_specs[i].workers;
    const runtime::ExperimentResult& r = results[i];
    const PointStats& p = points[i];
    report.Add(r, static_cast<double>(workers));
    const double events_per_iter =
        static_cast<double>(p.events) / iterations;
    const double xfers_per_iter =
        static_cast<double>(p.transfers) / iterations;
    const double xrack_per_iter =
        static_cast<double>(p.cross_rack) / iterations;
    std::printf("  %8d %7d %12.3f %14.1f %12.1f %12.1f %12.1f\n", workers,
                p.ts_shards, r.stats.total_time, r.average_throughput,
                events_per_iter, xfers_per_iter, xrack_per_iter);
    csv.WriteRow({common::StrFormat("%d", workers),
                  common::StrFormat("%d", p.ts_shards),
                  common::StrFormat("%d", iterations),
                  common::StrFormat("%.6f", r.stats.total_time),
                  common::StrFormat("%.3f", r.average_throughput),
                  common::StrFormat("%.1f", events_per_iter),
                  common::StrFormat("%.1f", xfers_per_iter),
                  common::StrFormat("%.1f", xrack_per_iter)});
    // Wall-clock rates are machine-specific: stderr only, so stdout
    // stays byte-identical across machines and --jobs values. The
    // per-event and per-grant columns divide the whole run's wall time,
    // not the Token Server's share of it.
    const double iters_per_sec =
        p.wall_seconds > 0.0 ? iterations / p.wall_seconds : 0.0;
    const double us_per_event =
        p.events > 0 ? 1e6 * p.wall_seconds / static_cast<double>(p.events)
                     : 0.0;
    const double us_per_grant =
        p.grants > 0 ? 1e6 * p.wall_seconds / static_cast<double>(p.grants)
                     : 0.0;
    const double attempts_per_grant =
        p.grants > 0 ? static_cast<double>(p.grant_attempts) /
                           static_cast<double>(p.grants)
                     : 0.0;
    std::fprintf(stderr,
                 "wall[%d workers, %d shard(s)]: %.2f iterations/sec "
                 "(%.3fs for %d); run wall %.2f us/event, %.2f us/grant; "
                 "%.2f attempts/grant\n",
                 workers, p.ts_shards, iters_per_sec, p.wall_seconds,
                 iterations, us_per_event, us_per_grant, attempts_per_grant);

    common::Json row = common::Json::Object();
    row.Set("engine", r.engine_name);
    row.Set("x", static_cast<double>(workers));
    row.Set("ts_shards", p.ts_shards);
    row.Set("iterations", r.stats.iteration_count());
    row.Set("mean_iteration_seconds", r.stats.MeanIterationSeconds());
    row.Set("total_seconds", r.stats.total_time);
    row.Set("average_throughput", r.average_throughput);
    row.Set("gpu_utilization", r.gpu_utilization);
    row.Set("stalled", r.stats.stalled);
    row.Set("wall_iterations_per_sec", iters_per_sec);
    row.Set("wall_us_per_event", us_per_event);
    row.Set("wall_us_per_grant", us_per_grant);
    row.Set("grant_attempts_per_grant", attempts_per_grant);
    row.Set("events_per_iteration", events_per_iter);
    row.Set("transfers_per_iteration", xfers_per_iter);
    row.Set("cross_rack_per_iteration", xrack_per_iter);
    baseline_rows.Append(std::move(row));

    // The O(P) gate: a flat ring schedules 2P(P-1) transfers per sync
    // (~2000x P at 1024 workers); the hierarchical collective schedules
    // ~2P per level. Fetches and multi-level syncs contribute a few more
    // multiples of P, so 64*P per iteration is a generous linear bound
    // that the quadratic path exceeds by orders of magnitude.
    if (xfers_per_iter > 64.0 * workers) {
      std::fprintf(stderr,
                   "FAIL: %d workers schedule %.0f transfers/iteration "
                   "(> 64*P = %d): sync path is super-linear again\n",
                   workers, xfers_per_iter, 64 * workers);
      rc = 1;
    }
    // The waiter gate: a report's implicit request plus the one-pass
    // waiter service cost ~1.33 TryGrant calls per grant at every size;
    // re-trying every parked waiter after every report cost 172 per
    // grant at 1024 workers.
    if (p.grant_attempts > 2 * p.grants) {
      std::fprintf(stderr,
                   "FAIL: %d workers, %d shard(s) made %llu grant attempts "
                   "for %llu grants (> 2 per grant): parked waiters are "
                   "being re-scanned\n",
                   workers, p.ts_shards,
                   static_cast<unsigned long long>(p.grant_attempts),
                   static_cast<unsigned long long>(p.grants));
      rc = 1;
    }
    if (workers > 32 && p.cross_rack == 0) {
      std::fprintf(stderr,
                   "FAIL: %d workers on a 32/rack topology produced no "
                   "cross-rack traffic — hierarchical path not exercised\n",
                   workers);
      rc = 1;
    }
  }
  std::printf("\nwrote scale_workers.csv\n");

  if (!baseline_out.empty()) {
    common::Json doc = common::Json::Object();
    doc.Set("bench", std::string("scale_workers"));
    doc.Set("results", baseline_rows);
    doc.SortKeysRecursive();
    std::string error;
    if (!obs::ValidateBenchReportJson(doc, &error)) {
      std::fprintf(stderr, "baseline failed validation: %s\n", error.c_str());
      return 1;
    }
    std::ofstream out(baseline_out);
    out << doc.Dump(1) << "\n";
    if (!out) {
      std::fprintf(stderr, "failed to write %s\n", baseline_out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", baseline_out.c_str());
  }

  // Determinism gate on a racked mid-size point: the hierarchical
  // collective, rack channels, and per-rack sub-distributors must replay
  // byte-identically.
  runtime::ExperimentSpec gate;
  gate.total_batch = kSamplesPerWorker * 64;
  gate.iterations = 3;
  gate.num_workers = 64;
  gate.calibration.topology = RackedTopology();
  rc |= bench::VerifyDeterminismGate(
      opts, "scale_workers", gate,
      suite::FelaFactory(model, core::FelaConfig::Defaults(num_levels, 64)),
      runtime::NoStragglerFactory());
  return bench::FinishBench(opts, report) | rc;
}
