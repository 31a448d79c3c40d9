#ifndef FELA_COMMON_RNG_H_
#define FELA_COMMON_RNG_H_

#include <cstdint>

namespace fela::common {

/// Deterministic pseudo-random generator (xoshiro256**), seeded via
/// SplitMix64. All stochastic behaviour in the simulator flows through
/// this class so that experiments are exactly reproducible per seed.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform in [0, bound) without modulo bias. bound must be > 0.
  uint64_t UniformInt(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double UniformDouble();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p);

 private:
  uint64_t s_[4];
};

/// Stateless SplitMix64-style mix of three words into one seed. Lets
/// callers derive an independent deterministic stream per (seed, index,
/// salt) tuple without carrying generator state — the same scheme the
/// fault and straggler schedules use for per-decision draws.
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c);

/// Exponential backoff delay with deterministic jitter:
/// min(base * multiplier^attempt, max) scaled by a factor in [1.0, 1.5)
/// drawn from Rng(MixSeed(seed, stream, attempt)). Jitter only ever
/// *stretches* the delay — a jittered retry never fires before the
/// un-jittered schedule would, so merely arming retry timers (an inert
/// fault schedule) cannot perturb a run that never needed them. Same
/// inputs, same delay, on every platform. attempt 0 is the first retry.
double JitteredBackoffSec(double base_sec, double multiplier, double max_sec,
                          int attempt, uint64_t seed, uint64_t stream);

}  // namespace fela::common

#endif  // FELA_COMMON_RNG_H_
