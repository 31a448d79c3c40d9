#ifndef FELA_RUNTIME_BENCH_JSON_H_
#define FELA_RUNTIME_BENCH_JSON_H_

#include <string>

#include "common/json.h"
#include "runtime/experiment.h"

namespace fela::obs {

/// Accumulates a bench's per-engine results into the machine-readable
/// artifact written by `--json`: one entry per (engine, sweep point),
/// each with iteration-time summaries and — when the run was observed —
/// the full attribution report. Schema (validated by
/// ValidateBenchReportJson):
///
///   { "bench": "<name>",
///     "results": [ { "engine": str, "x": num, "iterations": num,
///                    "mean_iteration_seconds": num,
///                    "average_throughput": num, "gpu_utilization": num,
///                    "stalled": bool, "attribution"?: {...} } ] }
class BenchReport {
 public:
  explicit BenchReport(std::string bench_name);

  /// Adds one run's row; `x` is the sweep variable (0 when the bench
  /// has no sweep).
  void Add(const runtime::ExperimentResult& result, double x = 0.0);

  common::Json ToJson() const;

  /// Writes ToJson() to BenchJsonPath(bench name); returns the path, or
  /// "" on I/O failure.
  std::string WriteFile() const;

  const std::string& name() const { return name_; }
  size_t size() const { return results_.size(); }

 private:
  std::string name_;
  common::Json results_ = common::Json::Array();
};

/// "BENCH_<name>.json" in the current directory.
std::string BenchJsonPath(const std::string& bench_name);

/// Structural check of a BenchReport document (used by the smoke test
/// and by downstream consumers defending against schema drift). Verifies
/// required fields/types and, for every attribution block present, that
/// each worker's fractions sum to 1 within 1e-9. Fills `error` on
/// failure.
bool ValidateBenchReportJson(const common::Json& doc, std::string* error);

}  // namespace fela::obs

#endif  // FELA_RUNTIME_BENCH_JSON_H_
