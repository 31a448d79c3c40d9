// fela-lint fixture: one violation per per-file rule, every one
// suppressed with `fela-lint: allow(<rule>): <why>` — the whole file must
// lint clean, proving both same-line and preceding-comment-line
// suppression placement.
#include <unordered_set>

namespace fela::fixture {

// fela-lint: allow(wall-clock): fixture: suppression on preceding line
double Wall() { return clock(); }

int Draw() {
  return rand();  // fela-lint: allow(unseeded-rng): fixture: same line
}

class Quiet {
 public:
  void EmitAll() {
    // fela-lint: allow(unordered-iter): fixture
    for (int id : held_) Emit(id);
  }

 private:
  void Emit(int id);
  std::unordered_set<int> held_;
};

}  // namespace fela::fixture
