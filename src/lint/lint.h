#ifndef FELA_LINT_LINT_H_
#define FELA_LINT_LINT_H_

#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace fela::lint {

/// One rule violation. `line` is 1-based; `rule` is the kebab-case rule
/// id a suppression comment names: `// fela-lint: allow(<rule>): <why>`.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;

  friend bool operator==(const Finding& a, const Finding& b) {
    return a.file == b.file && a.line == b.line && a.rule == b.rule &&
           a.message == b.message;
  }
};

/// Static metadata for one lint rule (drives --list-rules and the docs).
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// All rules, in reporting order. Per-file rules:
///   wall-clock       wall-clock time source in deterministic sim code
///   unseeded-rng     unseeded/global randomness (only fela::common::Rng)
///   unordered-iter   emitting iteration over an unordered container
/// Whole-tree (interprocedural) rules, only run by LintTree:
///   transitive-wall-clock  sim code calls a helper that reaches a wall clock
///   transitive-rng         sim code calls a helper that reaches unseeded RNG
///   order-leak             sim code calls a helper that iterates unordered
///   guarded-by             FELA_GUARDED_BY member accessed without its lock
///   sweep-shared-state     mutable static/global shared across sweep workers
const std::vector<RuleInfo>& Rules();

/// True when `rule` names a known rule id.
bool IsKnownRule(const std::string& rule);

struct Options {
  /// Rules to run; empty means all.
  std::set<std::string> rules;
};

/// Wall-time spent in each pass of a LintTree run, in seconds, plus the
/// number of files scanned. Reported under "timings" in --format=json
/// and exportable as a BenchReport row set via TimingsToBenchJson.
struct Timings {
  double lex_seconds = 0.0;
  double include_graph_seconds = 0.0;
  double index_seconds = 0.0;
  double rules_seconds = 0.0;
  double total_seconds = 0.0;
  size_t files = 0;
};

/// Lints a single file's `contents` with the per-file rules only (the
/// interprocedural rules need the whole tree and run in LintTree).
/// `path` is used both for reporting and for rule scoping (path
/// components "sim", "core", "baselines", "runtime" mark simulation
/// code). `extra_unordered_members` seeds the unordered-iter rule with
/// member names declared elsewhere (the paired header).
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& contents,
                              const Options& options,
                              const std::set<std::string>&
                                  extra_unordered_members = {});

/// Walks `roots` (files or directories), lints every .h/.hpp/.cc/.cpp,
/// and returns findings sorted by (file, line, rule). Passes:
///   lex            read + comment/string blanking (lexer.h)
///   include graph  quoted-include resolution, cycles, transitive closure
///   index          function/method symbol index and call graph
///   rules          per-file rules, then the interprocedural rules
/// A file inherits unordered members from its sibling header and from
/// every project header in its *transitive* include closure. When
/// `timings` is non-null it receives per-pass wall time. Returns false
/// and fills `error` when a root cannot be read.
bool LintTree(const std::vector<std::string>& roots, const Options& options,
              std::vector<Finding>* findings, std::string* error,
              Timings* timings = nullptr);

/// Machine-readable report: {"count":N,"findings":[{file,line,message,rule}]}
/// with keys emitted in sorted order. Pure function of the findings —
/// byte-stable across runs.
std::string FindingsToJson(const std::vector<Finding>& findings);

/// FindingsToJson plus a "timings" object (per-pass seconds + file
/// count); what --format=json prints.
std::string ReportToJson(const std::vector<Finding>& findings,
                         const Timings& timings);

/// The timings as a BenchReport-shaped document (one row per pass) so
/// the standard bench-JSON validator and tooling accept lint timing
/// artifacts (BENCH_lint.json).
std::string TimingsToBenchJson(const Timings& timings);

/// Human-readable aligned table plus a one-line summary.
std::string FindingsToTable(const std::vector<Finding>& findings);

// ---------------------------------------------------------------------------
// Findings baseline (the ratchet)
// ---------------------------------------------------------------------------

/// `path` reduced to its repo-relative tail: components from the first
/// of {src, tools, tests, bench, examples} onward, joined with '/'.
/// Baselines store normalized paths so the file is stable no matter
/// where the tree was checked out or how fela-lint was invoked.
std::string NormalizePath(const std::string& path);

/// One tolerated legacy finding. Matching ignores line numbers (they
/// drift with unrelated edits); the key is (normalized file, rule,
/// message). `why` is a human note carried through regeneration.
struct BaselineEntry {
  std::string file;
  std::string rule;
  std::string message;
  std::string why;
};

struct Baseline {
  std::vector<BaselineEntry> entries;
};

/// The result of screening findings against a baseline: `fresh` is what
/// the ratchet rejects, `stale` is baseline entries that no longer
/// match anything (candidates for pruning), `matched` counts tolerated
/// findings.
struct BaselineResult {
  std::vector<Finding> fresh;
  std::vector<BaselineEntry> stale;
  size_t matched = 0;
};

/// Parses a baseline JSON document; false + `error` on malformed input.
bool ParseBaseline(const std::string& json, Baseline* baseline,
                   std::string* error);

/// Screens `findings` against `baseline`. Duplicate keys consume
/// baseline credit one finding at a time.
BaselineResult ApplyBaseline(const Baseline& baseline,
                             const std::vector<Finding>& findings);

/// Serializes `findings` as a fresh baseline, deterministically (sorted
/// entries, sorted keys). Entries that also exist in `previous` keep
/// their `why` notes.
std::string BaselineToJson(const std::vector<Finding>& findings,
                           const Baseline& previous);

/// The fela-lint command line:
///   fela-lint [--format=table|json] [--rules=a,b] [--list-rules]
///             [--baseline=FILE] [--update-baseline] [--bench-out=FILE]
///             <path>...
/// With --baseline, findings matching the baseline are tolerated and
/// only fresh findings fail the run; --update-baseline instead
/// regenerates FILE from the current findings and exits 0.
/// Exit codes: 0 clean, 1 findings reported, 2 usage or I/O error.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace fela::lint

#endif  // FELA_LINT_LINT_H_
