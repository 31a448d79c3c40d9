// fela-fuzz: property-based spec fuzzer with runtime invariant oracles.
// Generates random-but-valid experiment compositions (engine x model x
// cluster x stragglers x faults), runs each under the oracle battery
// (token conservation, event causality, memory bounds, attribution sums,
// stats sanity, metamorphic twins), and greedily shrinks any failure to
// a replayable JSON repro. See DESIGN.md "Property-based testing".
//
//   fela-fuzz [--seed N] [--runs N] [--jobs N]   fuzz `runs` cases from N
//             [--shrink-out FILE]                repro path on failure
//             [--replay FILE]                    re-run a repro JSON
//             [--mutate]                         arm the mutation canary
//
// Cases are staged on a SweepRunner and rendered in submission order, so
// stdout is byte-identical for any --jobs value (0 = hardware threads).
// Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "runtime/sweep.h"
#include "testing/fuzzer.h"
#include "testing/spec_gen.h"

namespace {

using fela::testing::FuzzCaseResult;
using fela::testing::FuzzOptions;
using fela::testing::FuzzSpec;

struct Options {
  uint64_t seed = 1;
  int runs = 100;
  int jobs = 1;
  std::string shrink_out = "fela-fuzz-repro.json";
  std::string replay;
  FuzzOptions fuzz;  // --mutate arms its completion-leak canary
};

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

int Usage(std::ostream& err) {
  err << "usage: fela-fuzz [--seed N] [--runs N] [--jobs N] "
         "[--shrink-out FILE] [--replay FILE] [--mutate]\n";
  return 2;
}

bool ParseArgs(const std::vector<std::string>& args, Options* out,
               std::ostream& err) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&](std::string* value) {
      if (i + 1 >= args.size()) return false;
      *value = args[++i];
      return true;
    };
    std::string v;
    uint64_t n = 0;
    if (a == "--seed") {
      if (!next(&v) || !ParseUint(v, &n)) return false;
      out->seed = n;
    } else if (a == "--runs") {
      if (!next(&v) || !ParseUint(v, &n) || n == 0) return false;
      out->runs = static_cast<int>(n);
    } else if (a == "--jobs") {
      if (!next(&v) || !ParseUint(v, &n)) return false;
      out->jobs = n == 0 ? fela::runtime::SweepRunner::HardwareJobs()
                         : static_cast<int>(n);
    } else if (a == "--shrink-out") {
      if (!next(&v)) return false;
      out->shrink_out = v;
    } else if (a == "--replay") {
      if (!next(&v)) return false;
      out->replay = v;
    } else if (a == "--mutate") {
      out->fuzz.canaries.leak_completions = true;
    } else {
      err << "fela-fuzz: unknown argument '" << a << "'\n";
      return false;
    }
  }
  return true;
}

void PrintViolations(const FuzzCaseResult& result, std::ostream& os) {
  for (const fela::testing::Violation& v : result.violations) {
    os << "  violation[" << v.oracle << "] " << v.detail << "\n";
  }
}

bool WriteRepro(const FuzzSpec& spec, const std::string& path,
                std::ostream& err) {
  std::ofstream out(path);
  if (!out) {
    err << "fela-fuzz: cannot write repro to '" << path << "'\n";
    return false;
  }
  out << fela::testing::SpecToJson(spec).Dump(1) << "\n";
  return static_cast<bool>(out);
}

int Replay(const Options& opts, std::ostream& os, std::ostream& err) {
  std::ifstream in(opts.replay);
  if (!in) {
    err << "fela-fuzz: cannot read '" << opts.replay << "'\n";
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  fela::common::Json doc;
  std::string error;
  if (!fela::common::Json::Parse(buffer.str(), &doc, &error)) {
    err << "fela-fuzz: bad JSON in '" << opts.replay << "': " << error
        << "\n";
    return 2;
  }
  FuzzSpec spec;
  if (!fela::testing::SpecFromJson(doc, &spec, &error)) {
    err << "fela-fuzz: bad spec in '" << opts.replay << "': " << error
        << "\n";
    return 2;
  }
  const FuzzCaseResult result = fela::testing::RunFuzzCase(spec, opts.fuzz);
  os << "replay " << fela::testing::SpecLabel(spec) << "\n";
  if (result.ok()) {
    os << "replay ok\n";
    return 0;
  }
  PrintViolations(result, os);
  os << "replay FAILED with " << result.violations.size()
     << " violation(s)\n";
  return 1;
}

int Fuzz(const Options& opts, std::ostream& os, std::ostream& err) {
  os << "fela-fuzz seed=" << opts.seed << " runs=" << opts.runs << "\n";

  // Stage every case on the runner, collect results into slots owned
  // here, then render serially in case order: stdout is byte-identical
  // for any --jobs value.
  std::vector<FuzzCaseResult> results(static_cast<size_t>(opts.runs));
  fela::runtime::SweepRunner runner(opts.jobs);
  for (int i = 0; i < opts.runs; ++i) {
    const uint64_t case_seed = opts.seed + static_cast<uint64_t>(i);
    runner.Add([&results, &opts, i, case_seed] {
      results[static_cast<size_t>(i)] = fela::testing::RunFuzzCase(
          fela::testing::GenerateSpec(case_seed), opts.fuzz);
    });
  }
  runner.RunAll();

  int failing = 0;
  int first_failing = -1;
  for (int i = 0; i < opts.runs; ++i) {
    const FuzzCaseResult& r = results[static_cast<size_t>(i)];
    os << fela::testing::CaseSummaryLine(static_cast<uint64_t>(i), r) << "\n";
    if (!r.ok()) {
      PrintViolations(r, os);
      ++failing;
      if (first_failing < 0) first_failing = i;
    }
  }
  os << "summary: " << opts.runs << " case(s), " << failing
     << " failing\n";
  if (failing == 0) return 0;

  // Minimize the first failure into a replayable repro.
  const FuzzSpec& failed = results[static_cast<size_t>(first_failing)].spec;
  const fela::testing::ShrinkResult shrunk =
      fela::testing::Shrink(failed, opts.fuzz);
  os << "shrink: " << shrunk.reductions << " reduction(s) in "
     << shrunk.attempts << " attempt(s) -> "
     << fela::testing::SpecLabel(shrunk.spec) << "\n";
  if (WriteRepro(shrunk.spec, opts.shrink_out, err)) {
    os << "repro written to " << opts.shrink_out << "\n";
  }
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  Options opts;
  if (!ParseArgs(args, &opts, std::cerr)) return Usage(std::cerr);
  if (!opts.replay.empty()) return Replay(opts, std::cout, std::cerr);
  return Fuzz(opts, std::cout, std::cerr);
}
