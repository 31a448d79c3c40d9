// fela_perfbench, the simulator benchmark. Runs one workload for a fixed wall
// budget, checks every experiment, and prints the results; the last line
// of stdout is one JSON object:
//
//   fela_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--tiny] [--spans-out PATH]
//
// --trace 0 repeats untraced passes and reports the end-to-end metrics.
// --trace 1 alternates untraced and traced passes and reports the
// per-layer metrics (from the traced passes) plus trace.overhead.
// Each pass runs in a process of its own and reports back over a pipe,
// so a pass the simulator aborts or never finishes is counted as failed
// and the result line is still printed. Metric definitions, units and
// the layer map are in README.md.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "harness.h"
#include "workloads.h"

namespace fela::perfbench {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string spans_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: fela_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--spans-out PATH]\n",
               why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      opts.tiny = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') Usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      opts.trace = value[0] == '1';
    } else if (flag == "--spans-out") {
      opts.spans_out = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return opts;
}

/// Seconds a run may take beyond --seconds before the pass still going is
/// killed. Engine::Run cannot be interrupted, and a simulation that never
/// finishes must not hang the benchmark.
constexpr double kOverrunLimitS = 120.0;

/// A fixed constant close to the calibration kernel's time, in seconds,
/// on the machine the benchmark was written on (README.md). Calibrated
/// times are scaled to it, so there they read close to wall seconds.
constexpr double kReferenceNominalS = 0.025;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The median, or 0 for a layer the pass never ran.
double Median(const std::vector<double>& v) {
  common::Samples samples;
  for (const double x : v) samples.Add(x);
  return samples.empty() ? 0.0 : samples.Median();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Written by ReferenceSeconds so that its loop is not optimized away.
volatile uint64_t reference_sink = 0;

/// Times a fixed kernel shaped like the simulator's inner loop (take the
/// earliest event off a binary heap, update an ordered map, schedule a
/// follow-up) and returns the median of three timings, in seconds. The
/// kernel shares no code with the simulator, so a change to the simulator
/// cannot move it; the speed the shared machine gives this process does.
double ReferenceSeconds() {
  std::vector<double> times;
  uint64_t checksum = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const double begin = Now();
    std::mt19937_64 rng(7);
    using Event = std::pair<double, int>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::map<int, double> latest;
    for (int id = 0; id < 4096; ++id) {
      queue.push({static_cast<double>(rng() % 1000000), id});
    }
    for (int step = 0; step < 100000; ++step) {
      const Event e = queue.top();
      queue.pop();
      latest[e.second] = e.first;
      queue.push({e.first + static_cast<double>(rng() % 1000), e.second});
    }
    checksum += static_cast<uint64_t>(latest.rbegin()->second);
    times.push_back(Now() - begin);
  }
  reference_sink = checksum;
  return Median(times);
}

double SimItersPerSec(const PassRecord& p) {
  double iters = 0.0;
  double run_s = 0.0;
  for (const ExperimentRecord& e : p.experiments) {
    iters += e.iterations;
    run_s += e.run_s;
  }
  return Ratio(iters, run_s);
}

/// Peak resident set (VmHWM) of this process, in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Per-layer metrics of one traced pass. README.md maps each to the
/// end-to-end metric it should move.
std::vector<Metric> LayerMetrics(const PassRecord& p,
                                 std::vector<std::string>* absent) {
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back(Metric{std::move(name), value, unit});
  };
  auto span_total = [&p](const char* name) {
    double total = 0.0;
    for (const SpanRecord& s : p.spans) {
      if (s.name == name) total += s.end - s.begin;
    }
    return total;
  };
  add("model.build_ms", 1e3 * p.model_build_s, "ms");
  add("model.partition_ms", 1e3 * p.partition_s, "ms");
  double cluster_build_s = 0.0;
  for (const ExperimentRecord& e : p.experiments) {
    cluster_build_s += e.cluster_build_s;
  }
  add("runtime.experiments", static_cast<double>(p.experiments.size()),
      "count");
  add("runtime.cluster_build_ms", 1e3 * cluster_build_s, "ms");

  // Sums over a subset of the pass's experiments.
  struct Totals {
    int n = 0;
    double build_s = 0, run_s = 0, iters = 0, events = 0, causality = 0;
    double transfers = 0, cross_rack = 0, data_bytes = 0, control = 0;
    double dropped = 0, duplicated = 0, spans = 0, binary = 0, chrome = 0;
    double export_s = 0;
    void Add(const ExperimentRecord& e) {
      ++n;
      build_s += e.engine_build_s;
      run_s += e.run_s;
      iters += e.iterations;
      events += static_cast<double>(e.events);
      causality += static_cast<double>(e.causality_violations);
      transfers += static_cast<double>(e.transfers);
      cross_rack += static_cast<double>(e.cross_rack);
      data_bytes += e.data_bytes;
      control += static_cast<double>(e.control_msgs);
      dropped += static_cast<double>(e.control_dropped);
      duplicated += static_cast<double>(e.control_duplicated);
      spans += static_cast<double>(e.spans);
      binary += static_cast<double>(e.binary_bytes);
      chrome += static_cast<double>(e.chrome_bytes);
      export_s += e.export_s;
    }
  };
  auto totals = [&p](auto&& keep) {
    Totals t;
    for (const ExperimentRecord& e : p.experiments) {
      if (keep(e)) t.Add(e);
    }
    return t;
  };

  const struct {
    const char* key;
    const char* engine;
  } kEngines[] = {{"fela", "Fela"}, {"dp", "DP"}, {"mp", "MP"}, {"hp", "HP"}};
  for (const auto& eng : kEngines) {
    const Totals t = totals(
        [&eng](const ExperimentRecord& e) { return e.engine == eng.engine; });
    const std::string key = std::string("engine.") + eng.key + ".";
    add(key + "build_ms", 1e3 * t.build_s, "ms");
    add(key + "run_s", t.run_s, "s");
    add(key + "iters", t.iters, "count");
    add(key + "events_per_iter", Ratio(t.events, t.iters), "events/iter");
    add(key + "run_us_per_event", Ratio(1e6 * t.run_s, t.events),
        "us/event");
    if (t.n == 0) {
      absent->push_back(key + "*: no " + eng.engine +
                        " experiment in this workload");
    }
  }

  const Totals all = totals([](const ExperimentRecord&) { return true; });
  add("sim.events_per_iter", Ratio(all.events, all.iters), "events/iter");
  add("sim.causality_violations", all.causality, "count");
  add("sim.fabric.transfers_per_iter", Ratio(all.transfers, all.iters),
      "1/iter");
  add("sim.fabric.cross_rack_per_iter", Ratio(all.cross_rack, all.iters),
      "1/iter");
  add("sim.fabric.data_mb_per_iter", Ratio(all.data_bytes / 1e6, all.iters),
      "MB/iter");
  add("sim.fabric.control_msgs_per_iter", Ratio(all.control, all.iters),
      "1/iter");
  add("sim.fabric.control_dropped", all.dropped, "count");
  add("sim.fabric.control_duplicated", all.duplicated, "count");

  // Token Server: Fela experiments only, ledgers summed over every
  // incarnation of the server.
  core::TokenServer::Stats ts;
  double fela_iters = 0.0, shards = 0.0, failovers = 0.0, checkpoints = 0.0;
  for (const ExperimentRecord& e : p.experiments) {
    if (e.engine != "Fela") continue;
    ts += e.ts;
    fela_iters += e.iterations;
    shards = std::max(shards, static_cast<double>(e.ts_shards));
    failovers += static_cast<double>(e.ts_failovers);
    checkpoints += static_cast<double>(e.ts_checkpoints);
  }
  const double grants = static_cast<double>(ts.grants);
  add("core.ts.shards", shards, "count");
  add("core.ts.grants_per_iter", Ratio(grants, fela_iters), "1/iter");
  add("core.ts.steals_per_iter",
      Ratio(static_cast<double>(ts.steals), fela_iters), "1/iter");
  add("core.ts.cross_shard_steals",
      static_cast<double>(ts.cross_shard_steals), "count");
  add("core.ts.conflicts_per_grant",
      Ratio(static_cast<double>(ts.conflicts), grants), "1/grant");
  add("core.ts.redundant_per_grant",
      Ratio(static_cast<double>(ts.redundant_requests), grants), "1/grant");
  add("core.ts.reclaimed", static_cast<double>(ts.tokens_reclaimed), "count");
  add("core.ts.regrants", static_cast<double>(ts.regrants), "count");
  add("core.ts.lease_expirations", static_cast<double>(ts.lease_expirations),
      "count");
  add("core.ts.leases_restored", static_cast<double>(ts.leases_restored),
      "count");
  add("core.ts.failovers", failovers, "count");
  add("core.ts.checkpoints", checkpoints, "count");

  add("core.tuning.evals", static_cast<double>(p.eval_s.size()), "count");
  add("core.tuning.eval_ms", 1e3 * Median(p.eval_s), "ms");
  add("core.tuning.tune_s", Median(p.tune_s), "s");
  if (p.tune_s.empty()) {
    absent->push_back("core.tuning.*: no in-situ tuning in this workload");
  }

  // Observability: per observed experiment, so the export split adds up
  // to obs.report_s (the remainder is result derivation and teardown).
  const Totals obs =
      totals([](const ExperimentRecord& e) { return e.observed; });
  const Totals bare =
      totals([](const ExperimentRecord& e) { return !e.observed; });
  const double n_obs = obs.n;
  add("obs.report_s", Ratio(obs.export_s, n_obs), "s");
  add("obs.attribution_s", Ratio(span_total("obs.attribution"), n_obs), "s");
  add("obs.metrics_s", Ratio(span_total("obs.metrics"), n_obs), "s");
  add("obs.chrome_s", Ratio(span_total("obs.chrome"), n_obs), "s");
  add("obs.binary_s", Ratio(span_total("obs.binary"), n_obs), "s");
  add("obs.detok_s", Ratio(span_total("obs.detok"), n_obs), "s");
  add("obs.spans_per_iter", Ratio(obs.spans, obs.iters), "1/iter");
  add("obs.binary_kb_per_iter", Ratio(obs.binary / 1024.0, obs.iters),
      "KB/iter");
  add("obs.chrome_kb_per_iter", Ratio(obs.chrome / 1024.0, obs.iters),
      "KB/iter");
  add("obs.run_overhead",
      Ratio(Ratio(obs.run_s, obs.iters), Ratio(bare.run_s, bare.iters)), "x");
  if (obs.n == 0) {
    absent->push_back("obs.*: observation is off in this workload");
  }
  return m;
}

/// What one pass's process reported to the parent.
struct PassReport {
  bool traced = false;
  bool complete = false;  // the process ran the pass to its end
  std::string why;        // set when !complete
  int attempted = 0;
  int failed = 0;
  uint64_t fingerprint = 0;
  /// Whole-pass figures, uncalibrated: wall_s, setup_s, sim_iters_per_s,
  /// reference_s, peak_rss_mb, and tune_s / report_s where the workload
  /// has them.
  std::vector<Metric> metrics;
  std::vector<Metric> layers;  // traced passes only
  std::vector<std::string> absent;
  std::vector<std::string> spans;  // Chrome trace events, traced passes

  /// The named metric's value; `fallback` if the pass has no such metric.
  double Get(const std::string& name, double fallback = 0.0) const {
    for (const auto* list : {&metrics, &layers}) {
      for (const Metric& m : *list) {
        if (m.name == name) return m.value;
      }
    }
    return fallback;
  }
  /// K / R: the factor that scales this pass's times to the calibration
  /// kernel's nominal speed (README.md, "Calibration").
  double scale() const {
    return Ratio(kReferenceNominalS, Get("reference_s"));
  }
};

/// Runs one pass and writes its report, one item a line, to `out`. Runs
/// in the pass's own process; the parent reads it with ParseReport.
void WriteReport(const Workload& workload, const Options& opts, bool traced,
                 size_t index, std::FILE* out) {
  // Before the pass, so that nothing the simulator leaves behind in this
  // process (heap, caches) can move it.
  const double reference_s = ReferenceSeconds();
  Pass pass(traced);
  workload.run(pass, opts.seed, opts.tiny);
  const PassRecord p = pass.Finish();
  for (const ExperimentRecord& e : p.experiments) {
    for (const std::string& why : e.failures) {
      std::fprintf(stderr, "FAIL: %s experiment: %s\n", e.engine.c_str(),
                   why.c_str());
    }
  }
  std::vector<Metric> metrics = {{"wall_s", p.wall_s, "s"},
                                 {"setup_s", p.setup_s(), "s"},
                                 {"sim_iters_per_s", SimItersPerSec(p), "1/s"},
                                 {"reference_s", reference_s, "s"}};
  std::vector<double> report;
  for (const ExperimentRecord& e : p.experiments) {
    if (e.observed) report.push_back(e.export_s);
  }
  if (!p.tune_s.empty()) metrics.push_back({"tune_s", Median(p.tune_s), "s"});
  if (!report.empty()) metrics.push_back({"report_s", Median(report), "s"});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  std::vector<std::string> absent;
  std::vector<Metric> layers;
  if (traced) {
    layers = LayerMetrics(p, &absent);
    layers.push_back({"bench.reference_ms", 1e3 * reference_s, "ms"});
  }

  std::fprintf(out, "attempted %zu\nfailed %d\nfingerprint %016" PRIx64 "\n",
               p.experiments.size(), p.failed(), p.fingerprint);
  for (const Metric& m : metrics) {
    std::fprintf(out, "metric %s %.17g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const Metric& m : layers) {
    std::fprintf(out, "layer %s %.17g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
  for (const std::string& why : absent) {
    std::fprintf(out, "absent %s\n", why.c_str());
  }
  for (size_t i = 0; i < p.spans.size(); ++i) {
    const SpanRecord& s = p.spans[i];
    std::fprintf(out,
                 "span {\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 s.name.c_str(), s.tag.c_str(), index, 1e6 * s.begin,
                 1e6 * (s.end - s.begin), i, s.parent);
  }
  std::fprintf(out, "end\n");
}

PassReport ParseReport(const std::string& text) {
  PassReport r;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "attempted") {
      fields >> r.attempted;
    } else if (key == "failed") {
      fields >> r.failed;
    } else if (key == "fingerprint") {
      fields >> std::hex >> r.fingerprint;
    } else if (key == "metric" || key == "layer") {
      Metric m;
      fields >> m.name >> m.value >> m.unit;
      (key == "metric" ? r.metrics : r.layers).push_back(std::move(m));
    } else if (key == "absent") {
      r.absent.push_back(line.substr(key.size() + 1));
    } else if (key == "span") {
      r.spans.push_back(line.substr(key.size() + 1));
    } else if (key == "end") {
      r.complete = true;
    }
  }
  return r;
}

[[noreturn]] void SystemError(const char* call) {
  std::fprintf(stderr, "perfbench: %s: %s\n", call, std::strerror(errno));
  std::exit(2);
}

/// Runs one pass in a child process and returns its report. The child is
/// killed if it is still running at `limit` (seconds on Now()'s clock);
/// a child that dies, exits non-zero or is killed yields an incomplete
/// report that says why.
PassReport RunPass(const Workload& workload, const Options& opts, bool traced,
                   size_t index, double limit) {
  int fds[2];
  if (pipe(fds) != 0) SystemError("pipe");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) SystemError("fork");
  if (pid == 0) {
    close(fds[0]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    std::FILE* out = fdopen(fds[1], "w");
    if (out == nullptr) _exit(2);
    WriteReport(workload, opts, traced, index, out);
    const bool written = std::fclose(out) == 0;
    std::fflush(stderr);
    _exit(written ? 0 : 2);
  }
  close(fds[1]);
  std::string text;
  bool killed = false;
  char buffer[1 << 16];
  for (;;) {
    const double left = limit - Now();
    pollfd readable{fds[0], POLLIN, 0};
    const int ready =
        left > 0.0 ? poll(&readable, 1, static_cast<int>(std::ceil(1e3 * left)))
                   : 0;
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) SystemError("poll");
    if (ready == 0) {
      kill(pid, SIGKILL);
      killed = true;
      break;
    }
    const ssize_t n = read(fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buffer, static_cast<size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) SystemError("waitpid");
  }

  PassReport r = ParseReport(text);
  r.traced = traced;
  char why[160] = "";
  if (killed) {
    std::snprintf(why, sizeof(why),
                  "still running %.0f s after --seconds ran out: an "
                  "experiment never ended",
                  kOverrunLimitS);
  } else if (WIFSIGNALED(status)) {
    std::snprintf(why, sizeof(why), "the pass process died of signal %d (%s)",
                  WTERMSIG(status), strsignal(WTERMSIG(status)));
  } else if (WEXITSTATUS(status) != 0) {
    std::snprintf(why, sizeof(why), "the pass process exited with code %d",
                  WEXITSTATUS(status));
  } else if (!r.complete) {
    std::snprintf(why, sizeof(why), "the pass process sent no full report");
  }
  if (why[0] != '\0') {
    r.complete = false;
    r.why = why;
  }
  return r;
}


/// The median over the passes that have it of one metric, times
/// scale(pass)^power: 0 leaves it as measured, 1 calibrates a time and
/// -1 a rate.
double MedianOf(const std::vector<PassReport>& passes,
                const std::string& name, int power = 0,
                size_t* count = nullptr) {
  std::vector<double> values;
  for (const PassReport& p : passes) {
    const double v = p.Get(name, NAN);
    if (!std::isnan(v)) values.push_back(v * std::pow(p.scale(), power));
  }
  if (count != nullptr) *count = values.size();
  return Median(values);
}

double MaxOf(const std::vector<PassReport>& passes, const std::string& name) {
  double max = 0.0;
  for (const PassReport& p : passes) max = std::max(max, p.Get(name));
  return max;
}

/// The end-to-end metrics: medians over the passes of calibrated times,
/// and the peak resident set of the largest pass process.
std::vector<Metric> EndToEnd(const std::vector<PassReport>& passes) {
  if (passes.empty()) return {};
  return {{"wall_s", MedianOf(passes, "wall_s", 1), "s"},
          {"setup_s", MedianOf(passes, "setup_s", 1), "s"},
          {"sim_iters_per_s", MedianOf(passes, "sim_iters_per_s", -1), "1/s"},
          {"peak_rss_mb", MaxOf(passes, "peak_rss_mb"), "MB"}};
}

/// The same figures as measured, and the calibration behind them.
void PrintUncalibrated(const std::vector<PassReport>& passes) {
  std::printf("  uncalibrated medians: wall_s %.6g s, setup_s %.6g s, "
              "sim_iters_per_s %.6g 1/s\n",
              MedianOf(passes, "wall_s"), MedianOf(passes, "setup_s"),
              MedianOf(passes, "sim_iters_per_s"));
  std::printf("  calibration kernel: median %.4g ms (nominal %.4g ms)\n",
              1e3 * MedianOf(passes, "reference_s"),
              1e3 * kReferenceNominalS);
}

/// The phase-split metrics that exist only on some workloads; printed
/// for a reader, not part of the JSON result (see README.md).
void PrintPhaseSplit(const std::vector<PassReport>& passes) {
  const struct {
    const char* name;
    const char* missing;
  } kPhases[] = {{"tune_s", "no in-situ tuning in this workload"},
                 {"report_s", "no observed experiment in this workload"}};
  for (const auto& phase : kPhases) {
    size_t n = 0;
    const double value = MedianOf(passes, phase.name, 0, &n);
    if (n == 0) {
      std::printf("  %-28s n/a (%s)\n", phase.name, phase.missing);
    } else {
      std::printf("  %-28s %.6g s (median over %zu passes)\n", phase.name,
                  value, n);
    }
  }
}

std::vector<Metric> PerLayer(const std::vector<PassReport>& traced,
                             const std::vector<PassReport>& untraced) {
  if (traced.empty() || untraced.empty()) return {};
  // Counters repeat exactly across passes; times are medians over them,
  // as measured.
  std::vector<Metric> out;
  for (const Metric& m : traced.front().layers) {
    out.push_back(Metric{m.name, MedianOf(traced, m.name), m.unit});
  }
  out.push_back(Metric{"trace.overhead",
                       Ratio(MedianOf(traced, "wall_s"),
                             MedianOf(untraced, "wall_s")),
                       "x"});
  return out;
}

/// A traced pass times export through harness.cc's replica of
/// RunExperiment's steps; untraced passes time RunExperiment itself. The
/// two must cost about the same, or the replica no longer mirrors the
/// program and the obs.* split is stale.
void CheckReplicaCost(const std::vector<PassReport>& traced,
                      const std::vector<PassReport>& untraced) {
  size_t n = 0;
  const double replica = MedianOf(traced, "report_s", 0, &n);
  if (n == 0) return;
  const double ratio = Ratio(replica, MedianOf(untraced, "report_s"));
  std::printf("  %-28s %.6g x (traced replica / RunExperiment export)\n",
              "replica.export_ratio", ratio);
  if (ratio < 0.75 || ratio > 1.0 / 0.75) {
    std::printf("  WARN: the traced export replica in harness.cc costs "
                "%.2fx what RunExperiment's export does; check that it "
                "still mirrors runtime::RunExperiment\n",
                ratio);
  }
}

/// Writes the traced passes' spans as Chrome trace-event JSON (one track
/// per pass), once, at the end of the run.
bool WriteSpans(const std::string& path,
                const std::vector<PassReport>& traced) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  const char* sep = "\n";
  for (const PassReport& p : traced) {
    for (const std::string& span : p.spans) {
      std::fprintf(f, "%s%s", sep, span.c_str());
      sep = ",\n";
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

int Main(int argc, char** argv) {
  const Options opts = ParseArgs(argc, argv);
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (w.name == opts.workload) workload = &w;
  }
  if (workload == nullptr) Usage(("unknown workload " + opts.workload).c_str());
  const int per_pass = workload->experiments(opts.tiny);

  // A pass that does not complete ends the run: the simulator is
  // deterministic, so every later pass of this seed would fail the same
  // way. All of its experiments count as failed.
  std::vector<PassReport> untraced, traced;
  int attempted = 0;
  int failed = 0;
  bool stopped = false;
  size_t index = 0;
  const double deadline = Now() + opts.seconds;
  auto run_pass = [&](bool trace) {
    PassReport r =
        RunPass(*workload, opts, trace, index++, deadline + kOverrunLimitS);
    if (!r.complete) {
      std::fprintf(stderr, "FAIL: %s pass %zu: %s\n",
                   trace ? "traced" : "untraced", index - 1, r.why.c_str());
      attempted += per_pass;
      failed += per_pass;
      stopped = true;
      return;
    }
    if (r.attempted != per_pass) {
      std::fprintf(stderr,
                   "perfbench: workload %s ran %d experiments in a pass; "
                   "workloads.cc declares %d\n",
                   workload->name.c_str(), r.attempted, per_pass);
      std::exit(2);
    }
    (trace ? traced : untraced).push_back(std::move(r));
  };
  do {
    run_pass(false);
    if (opts.trace && !stopped) run_pass(true);
  } while (!stopped && Now() < deadline);

  // Every pass of one seed must produce the same outputs; a pass that
  // does not counts all its experiments as failed.
  const uint64_t fingerprint =
      untraced.empty() ? 0 : untraced.front().fingerprint;
  for (const auto* passes : {&untraced, &traced}) {
    for (const PassReport& p : *passes) {
      attempted += p.attempted;
      if (p.fingerprint != fingerprint) {
        std::fprintf(stderr,
                     "FAIL: %s pass fingerprint %016" PRIx64
                     " differs from %016" PRIx64 "\n",
                     p.traced ? "traced" : "untraced", p.fingerprint,
                     fingerprint);
        failed += p.attempted;
      } else {
        failed += p.failed;
      }
    }
  }

  std::printf("perfbench %s: seed=%" PRIu64 " trace=%d%s passes=%zu+%zu\n",
              workload->name.c_str(), opts.seed, opts.trace ? 1 : 0,
              opts.tiny ? " tiny" : "", untraced.size(), traced.size());
  std::printf("  fingerprint=%016" PRIx64 " experiments: %d attempted, "
              "%d failed\n",
              fingerprint, attempted, failed);
  const std::vector<Metric> metrics =
      opts.trace ? PerLayer(traced, untraced) : EndToEnd(untraced);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!opts.trace && !untraced.empty()) {
    PrintUncalibrated(untraced);
    PrintPhaseSplit(untraced);
  }
  if (opts.trace) CheckReplicaCost(traced, untraced);
  if (!traced.empty()) {
    for (const std::string& why : traced.front().absent) {
      std::printf("  absent (reported as 0): %s\n", why.c_str());
    }
  }
  if (metrics.empty()) {
    std::printf("  no pass completed: no metric to report\n");
  }
  if (!opts.spans_out.empty() && !traced.empty()) {
    if (!WriteSpans(opts.spans_out, traced)) {
      std::fprintf(stderr, "cannot write %s\n", opts.spans_out.c_str());
      return 1;
    }
    std::printf("  spans written to %s\n", opts.spans_out.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace fela::perfbench

int main(int argc, char** argv) { return fela::perfbench::Main(argc, argv); }
