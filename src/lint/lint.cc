#include "lint/lint.h"

#include <algorithm>
#include <chrono>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <tuple>
#include <utility>

#include "common/json.h"
#include "common/string_util.h"
#include "common/table.h"
#include "lint/callgraph.h"
#include "lint/include_graph.h"
#include "lint/lexer.h"

namespace fela::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

const std::vector<RuleInfo> kRules = {
    {"wall-clock",
     "wall-clock time source in deterministic simulation code (use "
     "sim::Simulator::now())"},
    {"unseeded-rng",
     "unseeded or global randomness (all stochastic behaviour must flow "
     "through a seeded fela::common::Rng)"},
    {"unordered-iter",
     "iteration over a std::unordered_{map,set} member whose body emits "
     "events/output/IDs (iterate a sorted key snapshot instead)"},
    {"transitive-wall-clock",
     "simulation code calls a function that (transitively) reaches a "
     "wall-clock time source"},
    {"transitive-rng",
     "simulation code calls a function that (transitively) reaches "
     "unseeded/global randomness"},
    {"order-leak",
     "simulation code calls a function that (transitively) iterates an "
     "unordered container, leaking hash order into results"},
    {"guarded-by",
     "FELA_GUARDED_BY member accessed by a method that neither declares "
     "FELA_REQUIRES(mutex) nor takes a lock on the mutex"},
    {"sweep-shared-state",
     "mutable namespace-scope global, or function-local static reachable "
     "from a sweep task body; sweep workers share it across tasks"},
};

/// Wall time for the lint engine's own pass timers. Deliberately
/// uniquely named: fela-lint lints its own sources, and a generic
/// "NowSeconds" could name-collide into the call graph of real code.
double LintNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Suppressions: `// fela-lint: allow(rule-a, rule-b): rationale`.
// A suppression on a comment-only line also covers the next code line.
// The justification (": rationale" after the close paren) is required:
// an allow() without one suppresses nothing, so its finding still fires.
// ---------------------------------------------------------------------------

/// Per-line set of rule ids allowed on that line.
using AllowedRules = std::vector<std::set<std::string>>;

AllowedRules ParseSuppressions(const FileText& text) {
  AllowedRules allowed(text.comments.size());
  for (size_t i = 0; i < text.comments.size(); ++i) {
    const std::string& comment = text.comments[i];
    const size_t tag = comment.find("fela-lint:");
    if (tag == std::string::npos) continue;
    const size_t open = comment.find("allow(", tag);
    if (open == std::string::npos) continue;
    const size_t close = comment.find(')', open);
    if (close == std::string::npos) continue;
    size_t p = close + 1;
    while (p < comment.size() && comment[p] == ' ') ++p;
    // No `: reason` after the close paren: not a suppression at all.
    if (p >= comment.size() || comment[p] != ':' ||
        Trim(comment.substr(p + 1)).empty()) {
      continue;
    }
    std::string rule;
    for (size_t q = open + 6; q <= close; ++q) {
      const char c = q < close ? comment[q] : ',';
      if (c == ',' || c == ' ') {
        if (!rule.empty()) allowed[i].insert(rule);
        rule.clear();
      } else {
        rule += c;
      }
    }
  }
  return allowed;
}

bool LineHasCode(const std::string& code_line) {
  return std::any_of(code_line.begin(), code_line.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) == 0;
  });
}

bool Suppressed(const AllowedRules& allowed,
                const std::vector<std::string>& code, size_t line_index,
                const std::string& rule) {
  if (line_index < allowed.size() && allowed[line_index].count(rule) > 0) {
    return true;
  }
  // Walk back over comment-only / blank lines: their allow() covers the
  // next code line (this one).
  for (size_t i = line_index; i > 0;) {
    --i;
    if (LineHasCode(code[i])) break;
    if (allowed[i].count(rule) > 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Hazard matchers, shared by the per-file rules and the taint scanner
// ---------------------------------------------------------------------------

const char* const kWallClockPatterns[] = {
    "system_clock",     "steady_clock", "high_resolution_clock",
    "gettimeofday",     "clock_gettime", "timespec_get",
    "QueryPerformanceCounter",
};

const char* const kRngPatterns[] = {
    "rand",        "srand",         "random_device",
    "mt19937",     "mt19937_64",    "default_random_engine",
    "minstd_rand", "random_shuffle", "drand48",
};

/// True when `line` contains a bare call `p(` where p is "time" or
/// "clock" (member calls like `x.time()` do not match).
bool HasBareCall(const std::string& line, const char* p) {
  size_t pos = FindWord(line, p);
  while (pos != std::string::npos) {
    const size_t q = pos + std::string(p).size();
    const bool member = pos >= 1 && (line[pos - 1] == '.' ||
                                     (pos >= 2 && line[pos - 2] == '-' &&
                                      line[pos - 1] == '>'));
    if (!member && q < line.size() && line[q] == '(') return true;
    pos = FindWord(line, p, pos + 1);
  }
  return false;
}

/// Label of the first wall-clock hazard on `line`, or "".
std::string MatchWallClockLabel(const std::string& line) {
  for (const char* p : kWallClockPatterns) {
    if (ContainsWord(line, p)) return p;
  }
  for (const char* p : {"time", "clock"}) {
    if (HasBareCall(line, p)) return std::string(p) + "()";
  }
  return std::string();
}

/// Label of the first unseeded-RNG hazard on `line`, or "".
std::string MatchRngLabel(const std::string& line) {
  for (const char* p : kRngPatterns) {
    if (ContainsWord(line, p)) return p;
  }
  return std::string();
}

// ---------------------------------------------------------------------------
// Declaration collector
// ---------------------------------------------------------------------------

/// Member/local names declared as std::unordered_{map,set} in this file.
std::set<std::string> CollectUnorderedMembers(const FileText& text) {
  std::set<std::string> members;
  for (const std::string& line : text.code) {
    if (line.find("unordered_map<") == std::string::npos &&
        line.find("unordered_set<") == std::string::npos) {
      continue;
    }
    // Declarations only: `std::unordered_map<K, V> name_;` — skip
    // function signatures / parameters (they contain a '(').
    if (line.find('(') != std::string::npos) continue;
    const size_t semi = line.rfind(';');
    if (semi == std::string::npos) continue;
    size_t e = semi;
    while (e > 0 && std::isspace(static_cast<unsigned char>(line[e - 1]))) --e;
    size_t b = e;
    while (b > 0 && IsIdentChar(line[b - 1])) --b;
    if (b < e) members.insert(line.substr(b, e - b));
  }
  return members;
}

// ---------------------------------------------------------------------------
// Unordered-container loop finder (shared by unordered-iter and the
// order-leak taint scanner)
// ---------------------------------------------------------------------------

struct UnorderedLoop {
  size_t line_index = 0;         // 0-based line of the `for`
  const char* emitter = nullptr; // emitting call in the body, or nullptr
};

/// Joins code lines [start, end] into one string for multi-line matching.
std::string JoinCode(const FileText& text, size_t start, size_t end) {
  std::string out;
  for (size_t i = start; i <= end && i < text.code.size(); ++i) {
    out += text.code[i];
    out += '\n';
  }
  return out;
}

std::vector<UnorderedLoop> FindUnorderedLoops(
    const FileText& text, const std::set<std::string>& members) {
  std::vector<UnorderedLoop> loops;
  if (members.empty()) return loops;
  static const char* kEmitters[] = {
      "Emit(",         "Record(",       "FELA_TRACE",    "Schedule(",
      "ScheduleAt(",   "ScheduleAfter(", "Push(",        "PushAfter(",
      "push_back(",    "emplace_back(", "Append(",       "AddRow(",
      "printf",        "<<",            "SendControl(",  "Transfer(",
      "deliver_grant", "send_report",   "send_request",  "Increment(",
      "Observe(",
  };
  const auto& code = text.code;
  for (size_t i = 0; i < code.size(); ++i) {
    const size_t for_pos = FindWord(code[i], "for");
    if (for_pos == std::string::npos) continue;
    // Collect the parenthesized loop header, possibly spanning lines.
    size_t line = i;
    size_t pos = code[i].find('(', for_pos);
    if (pos == std::string::npos) continue;
    std::string header;
    int depth = 0;
    size_t body_line = line;
    size_t body_col = 0;
    bool closed = false;
    while (line < code.size() && !closed) {
      for (size_t c = line == i ? pos : 0; c < code[line].size(); ++c) {
        const char ch = code[line][c];
        if (ch == '(') ++depth;
        if (ch == ')') {
          --depth;
          if (depth == 0) {
            closed = true;
            body_line = line;
            body_col = c + 1;
            break;
          }
        }
        header += ch;
      }
      if (!closed) ++line;
    }
    if (!closed) continue;
    // Range-for over a tracked member, or iterator loop on its begin().
    bool over_member = false;
    const size_t colon = header.find(':');
    if (colon != std::string::npos && header.find("::") != colon &&
        header.find(';') == std::string::npos) {
      const std::string range = header.substr(colon + 1);
      for (const auto& m : members) {
        if (ContainsWord(range, m)) {
          over_member = true;
          break;
        }
      }
    }
    if (!over_member) {
      for (const auto& m : members) {
        if (header.find(m + ".begin(") != std::string::npos ||
            header.find(m + ".cbegin(") != std::string::npos) {
          over_member = true;
          break;
        }
      }
    }
    if (!over_member) continue;
    // Find the loop body: `{...}` or a single statement up to ';'.
    size_t bl = body_line;
    size_t bc = body_col;
    while (bl < code.size()) {
      while (bc < code[bl].size() &&
             std::isspace(static_cast<unsigned char>(code[bl][bc]))) {
        ++bc;
      }
      if (bc < code[bl].size()) break;
      ++bl;
      bc = 0;
    }
    if (bl >= code.size()) continue;
    size_t end_line = bl;
    if (code[bl][bc] == '{') {
      int braces = 0;
      bool done = false;
      for (size_t l = bl; l < code.size() && !done; ++l) {
        for (size_t c = l == bl ? bc : 0; c < code[l].size(); ++c) {
          if (code[l][c] == '{') ++braces;
          if (code[l][c] == '}') {
            --braces;
            if (braces == 0) {
              end_line = l;
              done = true;
              break;
            }
          }
        }
      }
    } else {
      while (end_line < code.size() &&
             code[end_line].find(';') == std::string::npos) {
        ++end_line;
      }
    }
    const std::string body = JoinCode(text, bl, end_line);
    UnorderedLoop loop;
    loop.line_index = i;
    for (const char* e : kEmitters) {
      if (body.find(e) != std::string::npos) {
        loop.emitter = e;
        break;
      }
    }
    loops.push_back(loop);
  }
  return loops;
}

// ---------------------------------------------------------------------------
// Per-file rules
// ---------------------------------------------------------------------------

struct RuleContext {
  const std::string& path;
  const FileText& text;
  const AllowedRules& allowed;
  std::vector<Finding>* findings;

  void Report(size_t line_index, const char* rule, std::string message) {
    if (Suppressed(allowed, text.code, line_index, rule)) return;
    findings->push_back(Finding{path, static_cast<int>(line_index) + 1, rule,
                                std::move(message)});
  }
};

void CheckWallClock(RuleContext& ctx) {
  for (size_t i = 0; i < ctx.text.code.size(); ++i) {
    const std::string& line = ctx.text.code[i];
    for (const char* p : kWallClockPatterns) {
      if (ContainsWord(line, p)) {
        ctx.Report(i, "wall-clock",
                   common::StrFormat("wall-clock source '%s' in simulation "
                                     "code; use sim::Simulator::now()",
                                     p));
        break;
      }
    }
    // Bare time()/clock() calls (member functions like busy_time() have
    // an identifier character before the word and do not match).
    for (const char* p : {"time", "clock"}) {
      if (HasBareCall(line, p)) {
        ctx.Report(i, "wall-clock",
                   common::StrFormat("call to %s() in simulation code; use "
                                     "sim::Simulator::now()",
                                     p));
      }
    }
  }
}

void CheckUnseededRng(RuleContext& ctx) {
  for (size_t i = 0; i < ctx.text.code.size(); ++i) {
    const std::string& line = ctx.text.code[i];
    for (const char* p : kRngPatterns) {
      if (ContainsWord(line, p)) {
        ctx.Report(i, "unseeded-rng",
                   common::StrFormat("'%s' in simulation code; all "
                                     "randomness must flow through a seeded "
                                     "fela::common::Rng",
                                     p));
        break;
      }
    }
  }
}

void CheckUnorderedIter(RuleContext& ctx,
                        const std::set<std::string>& members) {
  for (const UnorderedLoop& loop : FindUnorderedLoops(ctx.text, members)) {
    if (loop.emitter == nullptr) continue;
    ctx.Report(loop.line_index, "unordered-iter",
               common::StrFormat(
                   "iteration over unordered container emits output "
                   "('%s'); iterate a sorted key snapshot instead",
                   loop.emitter));
  }
}

// ---------------------------------------------------------------------------
// Scoping + file orchestration
// ---------------------------------------------------------------------------

bool RuleEnabled(const Options& options, const char* rule) {
  return options.rules.empty() || options.rules.count(rule) > 0;
}

bool IsSimScoped(const std::vector<std::string>& parts) {
  return HasComponent(parts, {"sim", "core", "baselines", "runtime"});
}

bool IsSimScopedPath(const std::string& path) {
  return IsSimScoped(PathComponents(path));
}

/// `path` reduced to its repo-relative tail: components from the first
/// of {src, tools, tests, bench, examples} onward, joined with '/', so a
/// transitive finding names the hazard's file the same way wherever the
/// tree was checked out.
std::string NormalizePath(const std::string& path) {
  const std::vector<std::string> parts = PathComponents(path);
  size_t start = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == "src" || parts[i] == "tools" || parts[i] == "tests" ||
        parts[i] == "bench" || parts[i] == "examples") {
      start = i;
      break;
    }
  }
  std::string out;
  for (size_t i = start; i < parts.size(); ++i) {
    if (!out.empty()) out += '/';
    out += parts[i];
  }
  return out;
}

std::string SiblingHeaderPath(const std::string& path) {
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos) return std::string();
  const std::string ext = path.substr(dot);
  if (ext != ".cc" && ext != ".cpp") return std::string();
  return path.substr(0, dot) + ".h";
}

std::vector<Finding> LintFileImpl(const std::string& path,
                                  const FileText& text,
                                  const AllowedRules& allowed,
                                  const Options& options,
                                  const std::set<std::string>& extra_members) {
  const std::vector<std::string> parts = PathComponents(path);
  std::vector<Finding> findings;
  RuleContext ctx{path, text, allowed, &findings};

  if (IsSimScoped(parts)) {
    if (RuleEnabled(options, "wall-clock")) CheckWallClock(ctx);
    if (RuleEnabled(options, "unseeded-rng")) CheckUnseededRng(ctx);
  }
  if (RuleEnabled(options, "unordered-iter")) {
    std::set<std::string> members = CollectUnorderedMembers(text);
    members.insert(extra_members.begin(), extra_members.end());
    CheckUnorderedIter(ctx, members);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return findings;
}

// ---------------------------------------------------------------------------
// Interprocedural rules (whole-tree only)
// ---------------------------------------------------------------------------

struct TreeContext {
  const Options& options;
  const std::map<std::string, FileText>& texts;
  const std::map<std::string, AllowedRules>& sups;
  const SymbolIndex& index;
  std::vector<Finding>* findings;

  bool SuppressedAt(const std::string& file, int line, const char* rule) const {
    const auto si = sups.find(file);
    const auto ti = texts.find(file);
    if (si == sups.end() || ti == texts.end()) return false;
    return Suppressed(si->second, ti->second.code,
                      static_cast<size_t>(line) - 1, rule);
  }
};

std::string ChainString(const SymbolIndex& index,
                        const std::vector<size_t>& chain,
                        const std::string& head) {
  std::string out = head;
  for (size_t i : chain) {
    if (!out.empty()) out += " -> ";
    out += index.functions()[i].name;
  }
  return out;
}

/// Fires `rule` at every call site in sim-scoped code whose callee is a
/// non-sim function tainted by one of `sources`. Boundary-only: calls
/// between two sim-scoped functions never fire (the callee gets its own
/// boundary finding where it crosses out of sim code), so one hazard
/// yields one finding per crossing, not one per chain link.
void CheckTransitiveRule(TreeContext& t, const char* rule, const char* what,
                         const std::vector<TaintSource>& sources) {
  if (!RuleEnabled(t.options, rule) || sources.empty()) return;
  const std::map<size_t, Taint> taint = PropagateTaint(t.index, sources);
  const auto& fns = t.index.functions();
  std::set<std::pair<std::string, int>> seen;  // (file, line) per rule
  for (const FunctionDef& f : fns) {
    if (!IsSimScopedPath(f.file)) continue;
    for (const CallSite& call : f.calls) {
      for (size_t j : t.index.Resolve(call.callee)) {
        if (IsSimScopedPath(fns[j].file)) continue;
        const auto it = taint.find(j);
        if (it == taint.end()) continue;
        if (!seen.insert({f.file, call.line}).second) break;
        if (!t.SuppressedAt(f.file, call.line, rule)) {
          const Taint& tt = it->second;
          t.findings->push_back(Finding{
              f.file, call.line, rule,
              common::StrFormat(
                  "call to '%s' reaches %s '%s' in %s via %s",
                  call.callee.c_str(), what, tt.label.c_str(),
                  NormalizePath(tt.file).c_str(),
                  ChainString(t.index, tt.chain, f.name).c_str())});
        }
        break;  // one tainted binding per call site is enough
      }
    }
  }
}

void CheckGuardedBy(TreeContext& t) {
  if (!RuleEnabled(t.options, "guarded-by")) return;
  static const char* kLockMarkers[] = {"lock_guard", "unique_lock",
                                       "scoped_lock"};
  for (const GuardedMember& gm : t.index.guarded_members()) {
    for (const FunctionDef& f : t.index.functions()) {
      if (f.class_name != gm.class_name || gm.class_name.empty()) continue;
      // Constructors/destructors own the object exclusively.
      if (f.name == gm.class_name || f.name == "~" + gm.class_name) continue;
      const auto ti = t.texts.find(f.file);
      if (ti == t.texts.end()) continue;
      const auto& code = ti->second.code;
      bool holds_lock =
          std::find(f.requires_locks.begin(), f.requires_locks.end(),
                    gm.mutex) != f.requires_locks.end();
      int access_line = 0;
      const int last =
          std::min(f.body_end, static_cast<int>(code.size()));
      for (int l = f.body_begin; l >= 1 && l <= last; ++l) {
        const std::string& line = code[l - 1];
        if (access_line == 0 && ContainsWord(line, gm.member)) {
          access_line = l;
        }
        if (!holds_lock && ContainsWord(line, gm.mutex)) {
          for (const char* marker : kLockMarkers) {
            if (line.find(marker) != std::string::npos) holds_lock = true;
          }
          if (line.find(".lock(") != std::string::npos ||
              line.find(".Lock(") != std::string::npos) {
            holds_lock = true;
          }
        }
      }
      if (access_line == 0 || holds_lock) continue;
      if (t.SuppressedAt(f.file, access_line, "guarded-by")) continue;
      t.findings->push_back(Finding{
          f.file, access_line, "guarded-by",
          common::StrFormat(
              "'%s::%s' accesses '%s' (FELA_GUARDED_BY '%s') without "
              "FELA_REQUIRES(%s) or a lock on '%s'",
              gm.class_name.c_str(), f.name.c_str(), gm.member.c_str(),
              gm.mutex.c_str(), gm.mutex.c_str(), gm.mutex.c_str())});
    }
  }
}

void CheckSweepSharedState(TreeContext& t) {
  if (!RuleEnabled(t.options, "sweep-shared-state")) return;
  for (const GlobalDef& g : t.index.mutable_globals()) {
    if (t.SuppressedAt(g.file, g.line, "sweep-shared-state")) continue;
    std::string message;
    if (g.thread_hostile_type) {
      message = common::StrFormat(
          "namespace-scope instance '%s' of a FELA_THREAD_HOSTILE type; "
          "sweep workers would share it — confine it to one task",
          g.name.c_str());
    } else {
      message = common::StrFormat(
          "mutable namespace-scope global '%s'; sweep workers share it — "
          "make it const, thread_local, or per-task state",
          g.name.c_str());
    }
    t.findings->push_back(
        Finding{g.file, g.line, "sweep-shared-state", std::move(message)});
  }
  // Function-local mutable statics are only a hazard when sweep task
  // bodies can actually reach them.
  const std::map<size_t, std::vector<size_t>> reached = ReachableFrom(
      t.index, {"RunSweep", "RunExperiment", "VerifyDeterminism"});
  const auto& fns = t.index.functions();
  for (const auto& [fi, chain] : reached) {
    const FunctionDef& f = fns[fi];
    for (int line : f.mutable_static_lines) {
      if (t.SuppressedAt(f.file, line, "sweep-shared-state")) continue;
      t.findings->push_back(Finding{
          f.file, line, "sweep-shared-state",
          common::StrFormat(
              "mutable function-local static in '%s' is reachable from a "
              "sweep task body via %s; sweep workers share it across tasks",
              f.name.c_str(),
              ChainString(t.index, chain, std::string()).c_str())});
    }
  }
}

bool WriteTextFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << contents;
  out.close();
  return static_cast<bool>(out);
}

}  // namespace

const std::vector<RuleInfo>& Rules() { return kRules; }

bool IsKnownRule(const std::string& rule) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return rule == r.id; });
}

std::vector<Finding> LintFile(const std::string& path,
                              const std::string& contents,
                              const Options& options,
                              const std::set<std::string>&
                                  extra_unordered_members) {
  const FileText text = Preprocess(contents);
  return LintFileImpl(path, text, ParseSuppressions(text), options,
                      extra_unordered_members);
}

bool LintTree(const std::vector<std::string>& roots, const Options& options,
              std::vector<Finding>* findings, std::string* error,
              Timings* timings) {
  namespace fs = std::filesystem;
  const double t_start = LintNowSeconds();
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (!it->is_regular_file()) continue;
        const std::string p = it->path().string();
        const std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp") {
          files.push_back(p);
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      if (error != nullptr) *error = "cannot read " + root;
      return false;
    }
  }
  std::sort(files.begin(), files.end());

  // Pass 1: lex — read and blank every file once; everything downstream
  // shares these FileTexts.
  double t0 = LintNowSeconds();
  std::map<std::string, std::string> loaded;
  std::map<std::string, FileText> texts;
  std::map<std::string, AllowedRules> sups;
  for (const std::string& f : files) {
    std::string contents;
    if (!ReadFile(f, &contents)) {
      if (error != nullptr) *error = "cannot read " + f;
      return false;
    }
    FileText text = Preprocess(contents);
    sups[f] = ParseSuppressions(text);
    texts[f] = std::move(text);
    loaded[f] = std::move(contents);
  }
  const double lex_seconds = LintNowSeconds() - t0;

  // Pass 2: project include graph (cycle-safe transitive closure).
  t0 = LintNowSeconds();
  const IncludeGraph graph = IncludeGraph::Build(loaded);
  const double graph_seconds = LintNowSeconds() - t0;

  // Pass 3: symbol index + call graph.
  t0 = LintNowSeconds();
  SymbolIndex index;
  for (const std::string& f : files) index.IndexFile(f, texts[f]);
  index.Finish();
  const double index_seconds = LintNowSeconds() - t0;

  // Pass 4: rules.
  t0 = LintNowSeconds();
  std::map<std::string, std::set<std::string>> header_members;
  for (const std::string& f : files) {
    header_members[f] = CollectUnorderedMembers(texts[f]);
  }

  findings->clear();
  std::vector<TaintSource> wall_sources;
  std::vector<TaintSource> rng_sources;
  std::vector<TaintSource> leak_sources;
  for (const std::string& f : files) {
    // A file inherits unordered members from its sibling header and
    // from every project header in its transitive include closure (the
    // include graph replaces the old direct-only suffix matching).
    std::set<std::string> extra;
    auto merge_header = [&](const std::string& header_path) {
      const auto it = header_members.find(header_path);
      if (it != header_members.end()) {
        extra.insert(it->second.begin(), it->second.end());
        return;
      }
      // The header may live outside the scanned roots.
      std::string contents;
      if (ReadFile(header_path, &contents)) {
        const std::set<std::string> m =
            CollectUnorderedMembers(Preprocess(contents));
        extra.insert(m.begin(), m.end());
      }
    };
    const std::string sibling = SiblingHeaderPath(f);
    if (!sibling.empty()) merge_header(sibling);
    for (const std::string& dep : graph.Transitive(f)) {
      const auto it = header_members.find(dep);
      if (it != header_members.end()) {
        extra.insert(it->second.begin(), it->second.end());
      }
    }
    const size_t slash = f.find_last_of("/\\");
    const std::string dir =
        slash == std::string::npos ? std::string() : f.substr(0, slash + 1);
    for (const std::string& inc : graph.Missing(f)) {
      // Unscanned headers resolve relative to the includer's directory.
      merge_header(dir + inc);
    }

    std::vector<Finding> file_findings =
        LintFileImpl(f, texts[f], sups[f], options, extra);
    findings->insert(findings->end(), file_findings.begin(),
                     file_findings.end());

    // Taint sources live in NON-sim files: a hazard inside sim code is
    // the direct rules' finding, and a suppressed hazard is an accepted
    // one — neither should re-fire at every sim call site.
    if (IsSimScopedPath(f)) continue;
    const auto& code = texts[f].code;
    const auto& allowed = sups[f];
    for (size_t i = 0; i < code.size(); ++i) {
      const std::string wall = MatchWallClockLabel(code[i]);
      if (!wall.empty() && !Suppressed(allowed, code, i, "wall-clock") &&
          !Suppressed(allowed, code, i, "transitive-wall-clock")) {
        const size_t fn = index.FunctionAt(f, static_cast<int>(i) + 1);
        if (fn != SymbolIndex::npos) {
          wall_sources.push_back(
              TaintSource{fn, wall, f, static_cast<int>(i) + 1});
        }
      }
      const std::string rng = MatchRngLabel(code[i]);
      if (!rng.empty() && !Suppressed(allowed, code, i, "unseeded-rng") &&
          !Suppressed(allowed, code, i, "transitive-rng")) {
        const size_t fn = index.FunctionAt(f, static_cast<int>(i) + 1);
        if (fn != SymbolIndex::npos) {
          rng_sources.push_back(
              TaintSource{fn, rng, f, static_cast<int>(i) + 1});
        }
      }
    }
    // Order-leak sources: NON-emitting iteration over an unordered
    // container (emitting loops already fire unordered-iter on the spot).
    std::set<std::string> members = CollectUnorderedMembers(texts[f]);
    members.insert(extra.begin(), extra.end());
    for (const UnorderedLoop& loop : FindUnorderedLoops(texts[f], members)) {
      if (loop.emitter != nullptr) continue;
      if (Suppressed(allowed, code, loop.line_index, "unordered-iter") ||
          Suppressed(allowed, code, loop.line_index, "order-leak")) {
        continue;
      }
      const size_t fn =
          index.FunctionAt(f, static_cast<int>(loop.line_index) + 1);
      if (fn != SymbolIndex::npos) {
        leak_sources.push_back(TaintSource{
            fn, "unordered iteration", f,
            static_cast<int>(loop.line_index) + 1});
      }
    }
  }

  TreeContext tree{options, texts, sups, index, findings};
  CheckTransitiveRule(tree, "transitive-wall-clock", "wall-clock source",
                      wall_sources);
  CheckTransitiveRule(tree, "transitive-rng", "unseeded-RNG source",
                      rng_sources);
  CheckTransitiveRule(tree, "order-leak", "order-leaking", leak_sources);
  CheckGuardedBy(tree);
  CheckSweepSharedState(tree);
  const double rules_seconds = LintNowSeconds() - t0;

  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  if (timings != nullptr) {
    timings->lex_seconds = lex_seconds;
    timings->include_graph_seconds = graph_seconds;
    timings->index_seconds = index_seconds;
    timings->rules_seconds = rules_seconds;
    timings->total_seconds = LintNowSeconds() - t_start;
    timings->files = files.size();
  }
  return true;
}

std::string TimingsToBenchJson(const Timings& timings) {
  common::Json doc = common::Json::Object();
  doc.Set("bench", "lint");
  common::Json results = common::Json::Array();
  const std::pair<const char*, double> passes[] = {
      {"lex", timings.lex_seconds},
      {"include-graph", timings.include_graph_seconds},
      {"index", timings.index_seconds},
      {"rules", timings.rules_seconds},
      {"total", timings.total_seconds},
  };
  for (const auto& [pass, seconds] : passes) {
    common::Json row = common::Json::Object();
    row.Set("engine", pass);
    row.Set("x", 0.0);
    row.Set("iterations", 1);
    row.Set("mean_iteration_seconds", seconds);
    row.Set("total_seconds", seconds);
    row.Set("average_throughput",
            seconds > 0.0 ? static_cast<double>(timings.files) / seconds
                          : 0.0);
    row.Set("gpu_utilization", 0.0);
    row.Set("stalled", false);
    results.Append(std::move(row));
  }
  doc.Set("results", std::move(results));
  doc.SortKeysRecursive();
  return doc.Dump(1);
}

std::string FindingsToTable(const std::vector<Finding>& findings) {
  if (findings.empty()) return "fela-lint: clean\n";
  common::TablePrinter table({"location", "rule", "message"});
  for (const Finding& f : findings) {
    table.AddRow({common::StrFormat("%s:%d", f.file.c_str(), f.line), f.rule,
                  f.message});
  }
  return table.ToString() +
         common::StrFormat("\nfela-lint: %zu finding(s)\n", findings.size());
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  std::string bench_out;
  Options options;
  std::vector<std::string> paths;
  for (const std::string& arg : args) {
    if (arg.rfind("--rules=", 0) == 0) {
      std::string rule;
      for (char c : arg.substr(8) + ",") {
        if (c == ',') {
          if (!rule.empty()) {
            if (!IsKnownRule(rule)) {
              err << "fela-lint: unknown rule '" << rule << "'\n";
              return 2;
            }
            options.rules.insert(rule);
          }
          rule.clear();
        } else {
          rule += c;
        }
      }
    } else if (arg.rfind("--bench-out=", 0) == 0) {
      bench_out = arg.substr(12);
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : Rules()) {
        out << r.id << ": " << r.summary << "\n";
      }
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      err << "fela-lint: unknown flag '" << arg << "'\n";
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    err << "usage: fela-lint [--rules=a,b] [--list-rules] "
           "[--bench-out=FILE] <path>...\n";
    return 2;
  }
  std::vector<Finding> findings;
  std::string error;
  Timings timings;
  if (!LintTree(paths, options, &findings, &error, &timings)) {
    err << "fela-lint: " << error << "\n";
    return 2;
  }
  if (!bench_out.empty() &&
      !WriteTextFile(bench_out, TimingsToBenchJson(timings) + "\n")) {
    err << "fela-lint: cannot write " << bench_out << "\n";
    return 2;
  }
  out << FindingsToTable(findings);
  return findings.empty() ? 0 : 1;
}

}  // namespace fela::lint
