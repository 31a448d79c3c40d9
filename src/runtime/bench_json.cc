#include "runtime/bench_json.h"

#include <cmath>
#include <fstream>
#include <utility>

#include "common/string_util.h"

namespace fela::obs {

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)) {}

void BenchReport::Add(const runtime::ExperimentResult& result, double x) {
  common::Json row = common::Json::Object();
  row.Set("engine", result.engine_name);
  row.Set("x", x);
  row.Set("iterations", result.stats.iteration_count());
  row.Set("mean_iteration_seconds", result.stats.MeanIterationSeconds());
  row.Set("total_seconds", result.stats.total_time);
  row.Set("average_throughput", result.average_throughput);
  row.Set("gpu_utilization", result.gpu_utilization);
  row.Set("stalled", result.stats.stalled);
  if (result.observed) {
    row.Set("attribution", AttributionToJson(result.attribution));
    row.Set("metrics", result.metrics.ToJson());
  }
  results_.Append(std::move(row));
}

common::Json BenchReport::ToJson() const {
  common::Json doc = common::Json::Object();
  doc.Set("bench", name_);
  doc.Set("results", results_);
  // Canonical sorted key order: two exports of the same results are
  // byte-identical regardless of row-member insertion order.
  doc.SortKeysRecursive();
  return doc;
}

std::string BenchReport::WriteFile() const {
  const std::string path = BenchJsonPath(name_);
  std::ofstream out(path);
  if (!out) return "";
  out << ToJson().Dump(1) << "\n";
  out.close();
  return out ? path : "";
}

std::string BenchJsonPath(const std::string& bench_name) {
  return "BENCH_" + bench_name + ".json";
}

namespace {

bool Fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

bool CheckNumber(const common::Json& row, const char* key,
                 std::string* error) {
  const common::Json* v = row.Find(key);
  if (v == nullptr || !v->is_number()) {
    return Fail(error, common::StrFormat("missing/invalid \"%s\"", key));
  }
  return true;
}

bool CheckFractionsSumToOne(const common::Json& fractions, std::string* error,
                            const char* where) {
  if (!fractions.is_object()) {
    return Fail(error, common::StrFormat("%s: fractions not an object", where));
  }
  double sum = 0.0;
  for (const auto& [key, value] : fractions.members()) {
    if (!value.is_number()) {
      return Fail(error, common::StrFormat("%s: fraction \"%s\" not a number",
                                           where, key.c_str()));
    }
    sum += value.number_value();
  }
  if (std::abs(sum - 1.0) > 1e-9) {
    return Fail(error, common::StrFormat("%s: fractions sum to %.12f, not 1",
                                         where, sum));
  }
  return true;
}

bool ValidateAttribution(const common::Json& attr, std::string* error) {
  const common::Json* workers = attr.Find("workers");
  if (workers == nullptr || !workers->is_array()) {
    return Fail(error, "attribution missing \"workers\" array");
  }
  for (const common::Json& w : workers->items()) {
    const common::Json* fractions = w.Find("fractions");
    if (fractions == nullptr) {
      return Fail(error, "worker attribution missing \"fractions\"");
    }
    if (!CheckFractionsSumToOne(*fractions, error, "worker")) return false;
    const common::Json* per_iter = w.Find("per_iteration");
    if (per_iter == nullptr || !per_iter->is_array()) {
      return Fail(error, "worker attribution missing \"per_iteration\"");
    }
    for (const common::Json& it : per_iter->items()) {
      if (!CheckFractionsSumToOne(it, error, "iteration")) return false;
    }
  }
  if (attr.Find("run_bottleneck") == nullptr ||
      !attr.Find("run_bottleneck")->is_string()) {
    return Fail(error, "attribution missing \"run_bottleneck\"");
  }
  const common::Json* critical = attr.Find("critical_path");
  if (critical == nullptr || !critical->is_array()) {
    return Fail(error, "attribution missing \"critical_path\"");
  }
  for (const common::Json& c : critical->items()) {
    const common::Json* bottleneck = c.Find("bottleneck");
    if (bottleneck == nullptr || !bottleneck->is_string()) {
      return Fail(error, "critical-path entry missing \"bottleneck\"");
    }
  }
  return true;
}

}  // namespace

bool ValidateBenchReportJson(const common::Json& doc, std::string* error) {
  if (!doc.is_object()) return Fail(error, "document not an object");
  const common::Json* bench = doc.Find("bench");
  if (bench == nullptr || !bench->is_string() ||
      bench->string_value().empty()) {
    return Fail(error, "missing/invalid \"bench\"");
  }
  const common::Json* results = doc.Find("results");
  if (results == nullptr || !results->is_array()) {
    return Fail(error, "missing/invalid \"results\"");
  }
  if (results->size() == 0) return Fail(error, "\"results\" is empty");
  for (const common::Json& row : results->items()) {
    if (!row.is_object()) return Fail(error, "result row not an object");
    const common::Json* engine = row.Find("engine");
    if (engine == nullptr || !engine->is_string()) {
      return Fail(error, "result row missing \"engine\"");
    }
    for (const char* key :
         {"x", "iterations", "mean_iteration_seconds", "total_seconds",
          "average_throughput", "gpu_utilization"}) {
      if (!CheckNumber(row, key, error)) return false;
    }
    const common::Json* stalled = row.Find("stalled");
    if (stalled == nullptr || !stalled->is_bool()) {
      return Fail(error, "result row missing \"stalled\"");
    }
    const common::Json* attr = row.Find("attribution");
    if (attr != nullptr && !ValidateAttribution(*attr, error)) return false;
  }
  return true;
}

}  // namespace fela::obs
