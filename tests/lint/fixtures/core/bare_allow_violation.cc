// fela-lint fixture: an allow() without a `: reason` suppresses nothing,
// so the unseeded-rng finding on line 6 still fires.
namespace fela::fixture {

int Draw() {
  return rand();  // fela-lint: allow(unseeded-rng) legacy draw
}

}  // namespace fela::fixture
