#include "common/rng.h"

#include <limits>

namespace fela::common {

namespace {
uint64_t SplitMix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformInt(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

int64_t Rng::UniformRange(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  UniformInt(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::UniformDouble() {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
               c * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double JitteredBackoffSec(double base_sec, double multiplier, double max_sec,
                          int attempt, uint64_t seed, uint64_t stream) {
  double delay = base_sec;
  for (int i = 0; i < attempt; ++i) {
    delay *= multiplier;
    if (delay >= max_sec) break;  // cap reached; stop early
  }
  if (delay > max_sec) delay = max_sec;
  // Jitter stretches, never shrinks: a jittered retry must not fire
  // before the un-jittered schedule would, or arming the timers alone
  // (an inert fault schedule) could perturb a run that never needed the
  // retry. Decorrelation only needs spread, not direction.
  Rng rng(MixSeed(seed, stream, static_cast<uint64_t>(attempt)));
  return delay * (1.0 + 0.5 * rng.UniformDouble());
}

}  // namespace fela::common
