#ifndef FELA_LINT_CALLGRAPH_H_
#define FELA_LINT_CALLGRAPH_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lexer.h"

namespace fela::lint {

/// A conservative whole-tree symbol index and call graph: the IR the
/// interprocedural rules (transitive-wall-clock, transitive-rng,
/// order-leak, guarded-by, sweep-shared-state) run on. It is built
/// from the lexed token stream with a scope-tracking parser, not a real
/// C++ frontend, so it deliberately over-approximates: every
/// `identifier(` inside a function body is a potential call, and calls
/// bind to *every* function definition sharing the callee's unqualified
/// name. Over-approximation keeps the analysis sound for the rules'
/// purpose (missing a determinism leak is worse than naming one extra
/// chain); in-source `allow(<rule>): <why>` comments absorb the rest.

/// One potential call inside a function body.
struct CallSite {
  std::string callee;  // unqualified name as written
  int line = 0;        // 1-based
};

/// One function (or method) definition.
struct FunctionDef {
  std::string name;        // unqualified ("Register", "~TokenRegistry")
  std::string class_name;  // enclosing class or out-of-line qualifier; ""
  std::string file;
  int line = 0;        // 1-based line the signature starts on
  int body_begin = 0;  // line of the opening '{'
  int body_end = 0;    // line of the closing '}'
  std::vector<std::string> requires_locks;  // FELA_REQUIRES(...) mutexes
  std::vector<CallSite> calls;
  std::vector<int> mutable_static_lines;  // non-const function-local statics
};

/// One `member FELA_GUARDED_BY(mutex)` annotation.
struct GuardedMember {
  std::string member;
  std::string mutex;
  std::string class_name;
  std::string file;
  int line = 0;
};

/// One namespace-scope mutable global (the codebase's `g_*` idiom, or
/// an instance of a FELA_THREAD_HOSTILE-annotated type).
struct GlobalDef {
  std::string name;
  std::string file;
  int line = 0;
  bool thread_hostile_type = false;
};

class SymbolIndex {
 public:
  /// Indexes one lexed file; call once per file, in sorted path order,
  /// then Finish() before querying.
  void IndexFile(const std::string& path, const FileText& text);

  /// Builds the name lookup; required before Resolve/taint queries.
  void Finish();

  const std::vector<FunctionDef>& functions() const { return functions_; }
  const std::vector<GuardedMember>& guarded_members() const {
    return guarded_members_;
  }
  const std::vector<GlobalDef>& mutable_globals() const {
    return mutable_globals_;
  }
  const std::set<std::string>& thread_hostile_types() const {
    return thread_hostile_types_;
  }

  /// Indices of every definition named `name` (unqualified match).
  const std::vector<size_t>& Resolve(const std::string& name) const;

  /// Index of the innermost function in `file` whose body spans `line`,
  /// or npos.
  size_t FunctionAt(const std::string& file, int line) const;

  static constexpr size_t npos = static_cast<size_t>(-1);

 private:
  std::vector<FunctionDef> functions_;
  std::vector<GuardedMember> guarded_members_;
  std::vector<GlobalDef> mutable_globals_;
  std::set<std::string> thread_hostile_types_;
  std::map<std::string, std::vector<size_t>> by_name_;
};

/// A taint source: function `function` directly contains hazard
/// `label` (e.g. "steady_clock") at `file`:`line`.
struct TaintSource {
  size_t function = 0;
  std::string label;
  std::string file;
  int line = 0;
};

/// The taint state of one function: the hazard it reaches and the call
/// chain (function indices, this function first, source function last)
/// that reaches it.
struct Taint {
  std::string label;
  std::string file;  // where the hazard itself lives
  int line = 0;
  std::vector<size_t> chain;
};

/// Propagates taint from `sources` to every function that (transitively)
/// calls one, by BFS over reversed call edges. Deterministic: shortest
/// chain wins, ties broken by function index order.
std::map<size_t, Taint> PropagateTaint(const SymbolIndex& index,
                                       const std::vector<TaintSource>& sources);

/// Every function reachable from definitions named by `roots` (the
/// roots themselves included), mapped to the call chain from its root
/// (root first). Deterministic BFS, shortest chain wins.
std::map<size_t, std::vector<size_t>> ReachableFrom(
    const SymbolIndex& index, const std::vector<std::string>& roots);

}  // namespace fela::lint

#endif  // FELA_LINT_CALLGRAPH_H_
