// fela-lint's own test suite: every rule fires on its fixture at the
// documented line, suppressions silence it, the interprocedural rules
// name full call chains, and the CLI exit codes follow the 0/1/2
// contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.h"
#include "lint/include_graph.h"
#include "lint/lint.h"
#include "runtime/bench_json.h"

namespace fela::lint {
namespace {

#ifndef FELA_LINT_FIXTURE_DIR
#error "build must define FELA_LINT_FIXTURE_DIR"
#endif

const char* const kFixtureDir = FELA_LINT_FIXTURE_DIR;

std::vector<Finding> LintFixtures() {
  std::vector<Finding> findings;
  std::string error;
  EXPECT_TRUE(LintTree({kFixtureDir}, Options{}, &findings, &error)) << error;
  return findings;
}

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

const Finding* FindInFile(const std::vector<Finding>& findings,
                          const char* file_suffix,
                          const char* rule = nullptr) {
  const auto it = std::find_if(
      findings.begin(), findings.end(), [&](const Finding& f) {
        return EndsWith(f.file, file_suffix) &&
               (rule == nullptr || f.rule == rule);
      });
  return it == findings.end() ? nullptr : &*it;
}

std::vector<Finding> FindingsIn(const std::vector<Finding>& findings,
                                const char* file_suffix) {
  std::vector<Finding> out;
  for (const Finding& f : findings) {
    if (EndsWith(f.file, file_suffix)) out.push_back(f);
  }
  return out;
}

/// A scratch file under gtest's temp dir, removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }

  const std::string& path() const { return path_; }

  std::string Read() const {
    std::ifstream in(path_, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

 private:
  std::string path_;
};

TEST(LintRulesTest, EveryRuleFiresExactlyOnceOnItsFixture) {
  const std::vector<Finding> findings = LintFixtures();
  ASSERT_EQ(findings.size(), 12u);

  struct Expected {
    const char* rule;
    const char* file_suffix;
    int line;
  };
  const Expected expected[] = {
      {"wall-clock", "core/wall_clock_violation.cc", 6},
      {"unseeded-rng", "core/unseeded_rng_violation.cc", 6},
      {"unordered-iter", "core/unordered_iter_violation.cc", 10},
      {"unordered-iter", "core/cross_header_member_violation.cc", 9},
      {"unordered-iter", "core/local_unordered_violation.cc", 12},
      // A reasonless allow() suppresses nothing.
      {"unseeded-rng", "core/bare_allow_violation.cc", 6},
      {"guarded-by", "core/guarded_by_violation.cc", 13},
      {"transitive-wall-clock", "core/transitive_violation.cc", 14},
      {"transitive-rng", "core/transitive_violation.cc", 15},
      {"order-leak", "core/transitive_violation.cc", 16},
  };
  for (const Expected& e : expected) {
    const Finding* f = FindInFile(findings, e.file_suffix, e.rule);
    ASSERT_NE(f, nullptr) << e.file_suffix << " produced no " << e.rule;
    EXPECT_EQ(f->line, e.line) << e.file_suffix << " " << e.rule;
  }
  // sweep-shared-state fires twice (global + reachable local static) and
  // is covered by its own test below; everything else is single-shot.
  EXPECT_EQ(
      FindingsIn(findings, "core/sweep_shared_state_violation.cc").size(), 2u);
}

// The FIFO-chain scheduling calls order events like Schedule and Push,
// and neither name contains either of those, so each is an emitter of
// its own: a loop over an unordered container that calls one fires.
TEST(LintRulesTest, UnorderedLoopCallingAChainedScheduleFires) {
  for (const char* call : {"sim_->ScheduleAfter(last_, when, fn);",
                           "queue_.PushAfter(last_, when, fn);"}) {
    const std::string source =
        std::string("#include <unordered_set>\n"
                    "void Arm() {\n"
                    "  std::unordered_set<int> pending;\n"
                    "  for (int id : pending) {\n"
                    "    ") +
        call +
        "\n"
        "  }\n"
        "}\n";
    const std::vector<Finding> findings =
        LintFile("src/sim/fifo_chain.cc", source, Options{});
    ASSERT_EQ(findings.size(), 1u) << call;
    EXPECT_EQ(findings[0].rule, "unordered-iter") << call;
    EXPECT_EQ(findings[0].line, 4) << call;
  }
}

TEST(LintRulesTest, SuppressedFixtureIsClean) {
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(LintTree({std::string(kFixtureDir) + "/core/suppressed.cc"},
                       Options{}, &findings, &error))
      << error;
  EXPECT_TRUE(findings.empty())
      << findings.size() << " finding(s), first: " << findings[0].rule;
}

TEST(LintRulesTest, RuleFilterRestrictsFindings) {
  Options options;
  options.rules.insert("wall-clock");
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(LintTree({kFixtureDir}, options, &findings, &error)) << error;
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
}

TEST(LintRulesTest, FindingsAreSortedByFileLineRule) {
  const std::vector<Finding> findings = LintFixtures();
  for (size_t i = 1; i < findings.size(); ++i) {
    EXPECT_LE(std::tie(findings[i - 1].file, findings[i - 1].line),
              std::tie(findings[i].file, findings[i].line));
  }
}

// ---------------------------------------------------------------------------
// Interprocedural rules
// ---------------------------------------------------------------------------

TEST(LintTransitiveTest, ThreeDeepChainIsNamedInFull) {
  const std::vector<Finding> findings = LintFixtures();
  const Finding* wall = FindInFile(findings, "core/transitive_violation.cc",
                                   "transitive-wall-clock");
  ASSERT_NE(wall, nullptr);
  EXPECT_NE(wall->message.find("StepSim -> ChainA -> ChainB -> ChainC"),
            std::string::npos)
      << wall->message;
  EXPECT_NE(wall->message.find("steady_clock"), std::string::npos)
      << wall->message;
  // The hazard's file appears normalized, with no line number, so the
  // message does not depend on the checkout path or on unrelated edits.
  EXPECT_NE(wall->message.find("tests/lint/fixtures/model/chain_helpers.cc"),
            std::string::npos)
      << wall->message;

  const Finding* rng = FindInFile(findings, "core/transitive_violation.cc",
                                  "transitive-rng");
  ASSERT_NE(rng, nullptr);
  EXPECT_NE(rng->message.find("StepSim -> JitterSeed -> RawJitter"),
            std::string::npos)
      << rng->message;
  EXPECT_NE(rng->message.find("rand"), std::string::npos) << rng->message;

  const Finding* leak =
      FindInFile(findings, "core/transitive_violation.cc", "order-leak");
  ASSERT_NE(leak, nullptr);
  EXPECT_NE(leak->message.find("unordered iteration"), std::string::npos)
      << leak->message;
}

TEST(LintTransitiveTest, HelperFileItselfStaysClean) {
  // The hazards live in non-sim files: the direct rules must not fire
  // there, and the transitive rules only fire at the sim-side boundary.
  const std::vector<Finding> findings = LintFixtures();
  EXPECT_TRUE(FindingsIn(findings, "model/chain_helpers.cc").empty());
  EXPECT_TRUE(FindingsIn(findings, "model/order_leak_helper.cc").empty());
}

TEST(LintGuardedByTest, FiresOnUnlockedAccessOnlyAndNamesTheMutex) {
  const std::vector<Finding> findings =
      FindingsIn(LintFixtures(), "core/guarded_by_violation.cc");
  // Peek fires; the lock_guard, FELA_REQUIRES, and suppressed accessors
  // are the negative twins and must not.
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "guarded-by");
  EXPECT_EQ(findings[0].line, 13);
  EXPECT_NE(findings[0].message.find("'GuardedCounter::Peek'"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("FELA_REQUIRES(mu_)"), std::string::npos)
      << findings[0].message;
}

TEST(LintSweepSharedStateTest, FlagsGlobalAndReachableStaticWithChain) {
  const std::vector<Finding> findings =
      FindingsIn(LintFixtures(), "core/sweep_shared_state_violation.cc");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "sweep-shared-state");
  EXPECT_EQ(findings[0].line, 9);
  EXPECT_NE(findings[0].message.find("g_fixture_ticks"), std::string::npos);
  EXPECT_EQ(findings[1].rule, "sweep-shared-state");
  EXPECT_EQ(findings[1].line, 12);
  EXPECT_NE(findings[1].message.find("RunExperiment -> Tick"),
            std::string::npos)
      << findings[1].message;
  // Helper() is unreachable from the sweep roots: its static is silent.
  // g_fixture_level is tolerated in source by its allow() comment, the
  // only way the tree tolerates a finding.
  for (const Finding& f : findings) {
    EXPECT_EQ(f.message.find("g_fixture_level"), std::string::npos)
        << f.message;
  }
}

// ---------------------------------------------------------------------------
// Include graph
// ---------------------------------------------------------------------------

TEST(IncludeGraphTest, ReportsCycleOnceAndClosureTerminates) {
  const std::map<std::string, std::string> sources = {
      {"a/cycle_a.h", "#include \"cycle_b.h\"\n"},
      {"a/cycle_b.h", "#include \"cycle_a.h\"\n"},
      {"a/use.cc", "#include \"cycle_a.h\"\n"},
  };
  const IncludeGraph graph = IncludeGraph::Build(sources);
  ASSERT_EQ(graph.Cycles().size(), 1u);
  EXPECT_EQ(graph.Cycles()[0],
            (std::vector<std::string>{"a/cycle_a.h", "a/cycle_b.h"}));
  // Cycle-safe transitive closure: both headers, each exactly once.
  EXPECT_EQ(graph.Transitive("a/use.cc"),
            (std::vector<std::string>{"a/cycle_a.h", "a/cycle_b.h"}));
}

TEST(IncludeGraphTest, RecordsUnresolvedIncludes) {
  const std::map<std::string, std::string> sources = {
      {"x.cc", "#include \"nope.h\"\n#include <vector>\n"},
  };
  const IncludeGraph graph = IncludeGraph::Build(sources);
  // Angle includes are system headers, never "missing".
  EXPECT_EQ(graph.Missing("x.cc"), (std::vector<std::string>{"nope.h"}));
  EXPECT_TRUE(graph.Direct("x.cc").empty());
}

TEST(IncludeGraphTest, FixtureCycleNeitherHangsNorFindsAnything) {
  std::vector<Finding> findings;
  std::string error;
  ASSERT_TRUE(LintTree({std::string(kFixtureDir) + "/include_graph"},
                       Options{}, &findings, &error))
      << error;
  EXPECT_TRUE(findings.empty())
      << findings.size() << " finding(s), first: " << findings[0].rule;
}

// ---------------------------------------------------------------------------
// Per-file behaviors (unchanged from v1)
// ---------------------------------------------------------------------------

TEST(LintFileTest, SameLineSuppressionOnlyCoversNamedRule) {
  const std::string path = "src/core/synthetic.cc";
  const std::string src =
      "namespace f {\n"
      "int Draw() {\n"
      "  return rand();  // fela-lint: allow(wall-clock): wrong rule\n"
      "}\n"
      "}\n";
  const std::vector<Finding> findings = LintFile(path, src, Options{});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unseeded-rng");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintFileTest, PatternsInsideStringsAndCommentsDoNotFire) {
  const std::string path = "src/sim/synthetic.cc";
  const std::string src =
      "namespace f {\n"
      "// rand() and system_clock in a comment are fine\n"
      "const char* kMsg = \"rand() system_clock mt19937\";\n"
      "/* block comment: random_device */\n"
      "}\n";
  EXPECT_TRUE(LintFile(path, src, Options{}).empty());
}

TEST(LintFileTest, ScopingLimitsSimRulesToSimPaths) {
  // The same unseeded draw: flagged under src/core, ignored in a bench
  // file (sim-scoped rules only apply to sim|core|baselines|runtime).
  const std::string src =
      "namespace f {\n"
      "int Draw() { return rand(); }\n"
      "}\n";
  EXPECT_EQ(LintFile("src/core/x.cc", src, Options{}).size(), 1u);
  EXPECT_TRUE(LintFile("bench/x.cc", src, Options{}).empty());
}

TEST(LintFileTest, SeededRngClassIsNotFlagged) {
  const std::string src =
      "#include \"common/rng.h\"\n"
      "namespace f {\n"
      "double Draw(fela::common::Rng& rng) { return rng.Uniform(); }\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/sim/x.cc", src, Options{}).empty());
}

// ---------------------------------------------------------------------------
// Timings export
// ---------------------------------------------------------------------------

TEST(LintJsonTest, TimingsExportPassesBenchReportValidator) {
  std::vector<Finding> findings;
  std::string error;
  Timings timings;
  ASSERT_TRUE(LintTree({kFixtureDir}, Options{}, &findings, &error, &timings))
      << error;
  EXPECT_EQ(timings.files, 18u);  // every fixture .h/.cc was scanned
  common::Json doc;
  ASSERT_TRUE(common::Json::Parse(TimingsToBenchJson(timings), &doc, &error))
      << error;
  EXPECT_TRUE(obs::ValidateBenchReportJson(doc, &error)) << error;
  // One row per pass plus the total.
  EXPECT_EQ(doc.Find("results")->size(), 5u);
  EXPECT_EQ(doc.Find("bench")->string_value(), "lint");
}

// ---------------------------------------------------------------------------
// CLI
// ---------------------------------------------------------------------------

TEST(LintCliTest, ExitCodesFollowContract) {
  std::ostringstream out;
  std::ostringstream err;
  // 1: findings reported.
  EXPECT_EQ(RunCli({kFixtureDir}, out, err), 1);
  // 0: clean tree (the suppressed fixture alone).
  EXPECT_EQ(RunCli({std::string(kFixtureDir) + "/core/suppressed.cc"}, out,
                   err),
            0);
  // 0: --list-rules.
  EXPECT_EQ(RunCli({"--list-rules"}, out, err), 0);
  // 2: no paths.
  EXPECT_EQ(RunCli({}, out, err), 2);
  // 2: unknown rule / unknown flag / unreadable path.
  EXPECT_EQ(RunCli({"--rules=bogus", kFixtureDir}, out, err), 2);
  EXPECT_EQ(RunCli({"--frobnicate", kFixtureDir}, out, err), 2);
  EXPECT_EQ(RunCli({"/nonexistent/fela/path"}, out, err), 2);
  // 2: fela-lint has no findings-file or JSON-report flags, so a script
  // that passes one fails loudly instead of running unscreened.
  EXPECT_EQ(RunCli({"--baseline=x", kFixtureDir}, out, err), 2);
  EXPECT_EQ(RunCli({"--update-baseline", kFixtureDir}, out, err), 2);
  EXPECT_EQ(RunCli({"--format=json", kFixtureDir}, out, err), 2);
  EXPECT_EQ(RunCli({"--format=xml", kFixtureDir}, out, err), 2);
}

TEST(LintCliTest, BenchOutWritesValidatedTimings) {
  TempFile bench("lint_test_bench.json");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunCli({"--bench-out=" + bench.path(),
                    std::string(kFixtureDir) + "/core/suppressed.cc"},
                   out, err),
            0)
      << err.str();
  common::Json doc;
  std::string error;
  ASSERT_TRUE(common::Json::Parse(bench.Read(), &doc, &error)) << error;
  EXPECT_TRUE(obs::ValidateBenchReportJson(doc, &error)) << error;
}

TEST(LintCliTest, TableOutputNamesEveryRule) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(RunCli({kFixtureDir}, out, err), 1);
  const std::string table = out.str();
  for (const RuleInfo& r : Rules()) {
    EXPECT_NE(table.find(r.id), std::string::npos) << r.id;
  }
  EXPECT_NE(table.find("12 finding(s)"), std::string::npos);
}

TEST(LintCliTest, ListRulesCoversEveryRule) {
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(RunCli({"--list-rules"}, out, err), 0);
  EXPECT_EQ(Rules().size(), 8u);
  for (const RuleInfo& r : Rules()) {
    EXPECT_NE(out.str().find(r.id), std::string::npos) << r.id;
    EXPECT_TRUE(IsKnownRule(r.id));
  }
  EXPECT_FALSE(IsKnownRule("not-a-rule"));
}

}  // namespace
}  // namespace fela::lint
