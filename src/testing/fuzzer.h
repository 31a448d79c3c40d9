#ifndef FELA_TESTING_FUZZER_H_
#define FELA_TESTING_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/token_server.h"
#include "runtime/experiment.h"
#include "testing/oracle.h"
#include "testing/spec_gen.h"

namespace fela::testing {

/// Metamorphic oracle names (reported in Violation::oracle alongside the
/// InvariantOracle names).
inline constexpr char kInertFaultOracle[] = "inert-fault-equivalence";
inline constexpr char kStragglerMonotoneOracle[] = "straggler-monotonicity";
inline constexpr char kFelaDominanceOracle[] = "fela-retention-dominates-dp";

struct FuzzOptions {
  /// Run metamorphic twin experiments (an extra 1–2 runs per eligible
  /// case). The shrinker disables them when the violation being chased
  /// came from a plain invariant oracle.
  bool metamorphic = true;
  /// Mutation canaries armed on the Token Server of every Fela run of
  /// the case, twins included; each run's server counts from zero.
  core::TokenServer::Canaries canaries;
};

/// Outcome of one fuzz case: the primary run plus everything every
/// oracle had to say about it.
struct FuzzCaseResult {
  FuzzSpec spec;
  runtime::ExperimentResult result;
  std::vector<Violation> violations;

  bool ok() const { return violations.empty(); }
};

/// Runs one spec under the full oracle battery:
///  * the primary experiment, probed post-run (token conservation,
///    event causality, memory bounds) and checked on its result
///    (attribution sums, stats sanity);
///  * metamorphic twins where the spec qualifies: a fault-free spec must
///    be byte-identical to the same spec under an inert-but-active
///    fault schedule; a clean spec on a static-schedule engine must not
///    get *faster* when a persistent straggler is added; a Fela case
///    under a crashy straggler composition must retain at least as much
///    of its clean throughput as DP retains of its own.
/// Deterministic per (spec, options), and safe to call from sweep threads
/// (no shared mutable state).
FuzzCaseResult RunFuzzCase(const FuzzSpec& spec,
                           const FuzzOptions& options = {});

/// Stable one-line render of a case outcome (what fela-fuzz prints);
/// byte-identical for a given (index, spec) regardless of --jobs.
std::string CaseSummaryLine(uint64_t index, const FuzzCaseResult& result);

/// Greedy spec minimization: starting from a failing spec, repeatedly
/// tries simplifications (drop faults, drop stragglers, halve
/// iterations, halve the cluster, halve the batch, uniform weights) and
/// keeps each one that still trips at least one of the *original*
/// oracles, looping until no simplification survives. Every run uses
/// `options`' canaries. The result is the replayable repro fela-fuzz
/// writes as JSON.
struct ShrinkResult {
  FuzzSpec spec;                      // minimized failing spec
  std::vector<Violation> violations;  // what the minimized spec trips
  int attempts = 0;                   // candidate runs executed
  int reductions = 0;                 // candidates accepted
};
ShrinkResult Shrink(const FuzzSpec& failing, const FuzzOptions& options = {},
                    int max_attempts = 100);

}  // namespace fela::testing

#endif  // FELA_TESTING_FUZZER_H_
