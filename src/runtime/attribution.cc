#include "runtime/attribution.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace fela::obs {

namespace {

/// Only these phases are attributable activity; kIteration is framing
/// and kIdle is derived, never recorded.
bool Attributable(Phase phase) {
  return static_cast<int>(phase) < static_cast<int>(Phase::kIteration);
}

struct ClippedSpan {
  Phase phase;
  double begin;
  double end;
};

/// One worker's attributable spans in recorded order, not yet clipped.
using Track = std::vector<ClippedSpan>;

/// `track` clipped to [lo, hi], empty intervals discarded.
std::vector<ClippedSpan> ClipTrack(const Track& track, double lo, double hi) {
  std::vector<ClippedSpan> out;
  for (const ClippedSpan& s : track) {
    const double b = std::max(s.begin, lo);
    const double e = std::min(s.end, hi);
    if (e > b) out.push_back(ClippedSpan{s.phase, b, e});
  }
  return out;
}

/// The priority partition of [lo, hi]: sweep the elementary segments
/// between span boundaries; each segment is charged to the
/// highest-priority (lowest enum value) phase covering it, or idle.
PhaseBreakdown Partition(const std::vector<ClippedSpan>& spans, double lo,
                         double hi) {
  PhaseBreakdown out;
  out.total = std::max(0.0, hi - lo);
  if (out.total <= 0.0) return out;
  std::vector<double> cuts;
  cuts.reserve(spans.size() * 2 + 2);
  cuts.push_back(lo);
  cuts.push_back(hi);
  for (const ClippedSpan& s : spans) {
    cuts.push_back(s.begin);
    cuts.push_back(s.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  double charged = 0.0;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double a = cuts[i];
    const double b = cuts[i + 1];
    const double mid = 0.5 * (a + b);
    Phase best = Phase::kIdle;
    for (const ClippedSpan& s : spans) {
      if (s.begin <= mid && mid < s.end &&
          static_cast<int>(s.phase) < static_cast<int>(best)) {
        best = s.phase;
      }
    }
    out.seconds[static_cast<size_t>(best)] += b - a;
    charged += b - a;
  }
  // Numerically the segments tile the window exactly; park any residue
  // (from duplicate-adjacent cuts) in idle so the sum-to-one invariant
  // is by construction, not by luck.
  const double residue = out.total - charged;
  if (!sim::TimeEq(residue, 0.0)) {
    out.seconds[static_cast<size_t>(Phase::kIdle)] += residue;
  }
  return out;
}

/// Backward "last-finisher" walk over all workers' spans in [lo, hi].
IterationCriticalPath WalkCriticalPath(const std::vector<ClippedSpan>& spans,
                                       const std::vector<sim::NodeId>& tracks,
                                       double lo, double hi, int iteration) {
  IterationCriticalPath out;
  out.iteration = iteration;
  out.path.total = std::max(0.0, hi - lo);
  double t = hi;
  bool first = true;
  while (t > lo) {
    // The span that reaches closest to t from below; among ties the one
    // beginning earliest (longest jump back) then highest priority.
    int best = -1;
    double best_reach = lo;
    for (size_t i = 0; i < spans.size(); ++i) {
      const ClippedSpan& s = spans[i];
      if (s.begin >= t) continue;
      const double reach = std::min(s.end, t);
      const bool better =
          best < 0 || reach > best_reach ||
          (sim::TimeEq(reach, best_reach) &&  // intentional exact tie-break
           (s.begin < spans[static_cast<size_t>(best)].begin ||
            (sim::TimeEq(s.begin, spans[static_cast<size_t>(best)].begin) &&
             static_cast<int>(s.phase) <
                 static_cast<int>(spans[static_cast<size_t>(best)].phase))));
      if (better) {
        best = static_cast<int>(i);
        best_reach = reach;
      }
    }
    if (best < 0) {
      out.path.seconds[static_cast<size_t>(Phase::kIdle)] += t - lo;
      break;
    }
    const ClippedSpan& s = spans[static_cast<size_t>(best)];
    if (best_reach < t) {
      // Nothing ran in (best_reach, t): the path waited on nothing we
      // recorded — idle on the critical path.
      out.path.seconds[static_cast<size_t>(Phase::kIdle)] += t - best_reach;
      t = best_reach;
    }
    if (first) {
      out.last_finisher = tracks[static_cast<size_t>(best)];
      first = false;
    }
    out.path.seconds[static_cast<size_t>(s.phase)] += t - s.begin;
    t = s.begin;
  }
  out.bottleneck = out.path.Dominant();
  return out;
}

}  // namespace

Phase PhaseBreakdown::Dominant() const {
  size_t best = static_cast<size_t>(Phase::kIdle);
  for (size_t i = 0; i < seconds.size(); ++i) {
    if (seconds[i] > seconds[best]) best = i;
  }
  return static_cast<Phase>(best);
}

void PhaseBreakdown::Add(const PhaseBreakdown& other) {
  for (size_t i = 0; i < seconds.size(); ++i) seconds[i] += other.seconds[i];
  total += other.total;
}

PhaseBreakdown AttributionReport::Cluster() const {
  PhaseBreakdown out;
  for (const WorkerAttribution& w : workers) out.Add(w.run);
  return out;
}

Phase AttributionReport::RunBottleneck() const {
  PhaseBreakdown sum;
  for (const IterationCriticalPath& c : critical) sum.Add(c.path);
  return sum.Dominant();
}

AttributionReport BuildAttribution(
    const std::string& engine, int num_workers,
    const std::vector<Span>& spans,
    const std::vector<runtime::IterationStats>& iterations) {
  AttributionReport report;
  report.engine = engine;
  report.num_workers = num_workers;
  report.workers.resize(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    report.workers[static_cast<size_t>(w)].worker = w;
  }
  // Bucketed once, so each (iteration, worker) window clips only its own
  // worker's spans: the cost grows as iterations x spans, not iterations
  // x workers x spans.
  std::vector<Track> tracks(static_cast<size_t>(num_workers));
  for (const Span& s : spans) {
    if (s.track < 0 || s.track >= num_workers || !Attributable(s.phase)) {
      continue;
    }
    tracks[static_cast<size_t>(s.track)].push_back(
        ClippedSpan{s.phase, s.begin, s.end});
  }
  for (size_t it = 0; it < iterations.size(); ++it) {
    const double lo = iterations[it].start;
    const double hi = iterations[it].end;
    std::vector<ClippedSpan> all;
    std::vector<sim::NodeId> all_tracks;
    for (int w = 0; w < num_workers; ++w) {
      WorkerAttribution& wa = report.workers[static_cast<size_t>(w)];
      const std::vector<ClippedSpan> mine =
          ClipTrack(tracks[static_cast<size_t>(w)], lo, hi);
      PhaseBreakdown breakdown = Partition(mine, lo, hi);
      wa.run.Add(breakdown);
      wa.iterations.push_back(std::move(breakdown));
      for (const ClippedSpan& s : mine) {
        all.push_back(s);
        all_tracks.push_back(w);
      }
    }
    report.critical.push_back(
        WalkCriticalPath(all, all_tracks, lo, hi, static_cast<int>(it)));
  }
  return report;
}

namespace {

common::Json FractionsJson(const PhaseBreakdown& b) {
  common::Json out = common::Json::Object();
  for (int p = 0; p < kNumPhases; ++p) {
    const Phase phase = static_cast<Phase>(p);
    if (phase == Phase::kIteration) continue;  // framing, never attributed
    out.Set(PhaseName(phase), b.fraction(phase));
  }
  return out;
}

}  // namespace

common::Json AttributionToJson(const AttributionReport& report) {
  common::Json doc = common::Json::Object();
  doc.Set("engine", report.engine);
  doc.Set("num_workers", report.num_workers);
  doc.Set("iterations", static_cast<double>(report.critical.size()));
  doc.Set("run_bottleneck", PhaseName(report.RunBottleneck()));
  doc.Set("cluster_fractions", FractionsJson(report.Cluster()));

  common::Json workers = common::Json::Array();
  for (const WorkerAttribution& w : report.workers) {
    common::Json jw = common::Json::Object();
    jw.Set("worker", w.worker);
    jw.Set("seconds", w.run.total);
    jw.Set("fractions", FractionsJson(w.run));
    common::Json per_iter = common::Json::Array();
    for (const PhaseBreakdown& b : w.iterations) {
      per_iter.Append(FractionsJson(b));
    }
    jw.Set("per_iteration", std::move(per_iter));
    workers.Append(std::move(jw));
  }
  doc.Set("workers", std::move(workers));

  common::Json critical = common::Json::Array();
  for (const IterationCriticalPath& c : report.critical) {
    common::Json jc = common::Json::Object();
    jc.Set("iteration", c.iteration);
    jc.Set("bottleneck", PhaseName(c.bottleneck));
    jc.Set("last_finisher", c.last_finisher);
    jc.Set("path_fractions", FractionsJson(c.path));
    critical.Append(std::move(jc));
  }
  doc.Set("critical_path", std::move(critical));
  return doc;
}

void FillRunMetrics(const std::string& engine, const runtime::RunStats& stats,
                    const AttributionReport& report,
                    MetricsRegistry* metrics) {
  FELA_CHECK(metrics != nullptr);
  const std::string el = "engine=" + engine;
  metrics->GetCounter("iterations", el)
      .Increment(static_cast<uint64_t>(stats.iteration_count()));
  metrics->GetCounter("control_messages", el).Increment(stats.control_messages);
  metrics->GetCounter("crashes", el).Increment(stats.faults.crashes);
  metrics->GetCounter("recoveries", el).Increment(stats.faults.recoveries);
  metrics->GetCounter("tokens_reclaimed", el)
      .Increment(stats.faults.tokens_reclaimed);
  metrics->GetGauge("total_seconds", el).Set(stats.total_time);
  metrics->GetGauge("data_bytes", el).Set(stats.total_data_bytes);
  metrics->GetGauge("gpu_busy_seconds", el).Set(stats.total_gpu_busy);

  const double mean = stats.MeanIterationSeconds();
  // Buckets scaled to the run: powers of two around the mean catch both
  // straggler-free and heavily delayed iterations in one shape.
  std::vector<double> bounds;
  const double base = mean > 0.0 ? mean / 4.0 : 1e-3;
  for (int i = 0; i < 8; ++i) {
    bounds.push_back(base * static_cast<double>(1 << i));
  }
  FixedHistogram& h = metrics->GetHistogram("iteration_seconds", el, bounds);
  for (const runtime::IterationStats& it : stats.iterations) {
    h.Observe(it.duration());
  }

  for (const WorkerAttribution& w : report.workers) {
    const std::string wl =
        common::StrFormat("engine=%s,worker=%d", engine.c_str(), w.worker);
    for (int p = 0; p < kNumPhases; ++p) {
      const Phase phase = static_cast<Phase>(p);
      if (phase == Phase::kIteration) continue;
      metrics->GetGauge(std::string("frac_") + PhaseName(phase), wl)
          .Set(w.run.fraction(phase));
    }
  }
}

}  // namespace fela::obs
