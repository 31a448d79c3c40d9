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
/// number of files scanned. Exported as a BenchReport row set via
/// TimingsToBenchJson (what --bench-out writes).
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

/// The timings as a BenchReport-shaped document (one row per pass) so
/// the standard bench-JSON validator and tooling accept lint timing
/// artifacts (BENCH_lint.json).
std::string TimingsToBenchJson(const Timings& timings);

/// Human-readable aligned table plus a one-line summary.
std::string FindingsToTable(const std::vector<Finding>& findings);

/// The fela-lint command line:
///   fela-lint [--rules=a,b] [--list-rules] [--bench-out=FILE] <path>...
/// Prints the findings table. A finding is tolerated only in source: by
/// a `// fela-lint: allow(<rule>): <why>` comment on its line or on the
/// comment lines just above it.
/// Exit codes: 0 clean, 1 findings reported, 2 usage or I/O error.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace fela::lint

#endif  // FELA_LINT_LINT_H_
