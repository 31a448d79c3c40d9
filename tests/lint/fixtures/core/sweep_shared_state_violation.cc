// fela-lint fixture: sweep-shared-state must fire exactly twice:
//   line 9   mutable namespace-scope global (reachable or not)
//   line 12  mutable function-local static, reachable from a sweep task
//            body (RunExperiment -> Tick)
// The const global, the allow()-ed global and the static inside the
// unreachable Helper() must not fire.
namespace fela::fixture {

int g_fixture_ticks = 0;

int Tick() {
  static int calls = 0;
  calls += g_fixture_ticks;
  return ++calls;
}

const int kLimit = 8;

// fela-lint: allow(sweep-shared-state): fixture: tolerated in source
int g_fixture_level = 0;

int Helper() {
  static int unreachable = 0;
  return ++unreachable;
}

int RunExperiment() { return Tick() + kLimit; }

}  // namespace fela::fixture
