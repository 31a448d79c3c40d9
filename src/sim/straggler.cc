#include "sim/straggler.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "sim/types.h"

namespace fela::sim {

namespace {
/// Stateless SplitMix64-style mix so DelayFor is a pure function.
uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
               c * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double MixToUnitDouble(uint64_t x) {
  return static_cast<double>(x >> 11) * (1.0 / 9007199254740992.0);
}
}  // namespace

RoundRobinStragglers::RoundRobinStragglers(int num_workers, double delay_sec)
    : num_workers_(num_workers), delay_sec_(delay_sec) {
  FELA_CHECK_GT(num_workers, 0);
  FELA_CHECK(IsDelay(delay_sec)) << delay_sec;
}

double RoundRobinStragglers::DelayFor(int iteration, int worker) const {
  return (iteration % num_workers_ == worker) ? delay_sec_ : 0.0;
}

std::string RoundRobinStragglers::ToString() const {
  return common::StrFormat("round-robin(d=%.1fs)", delay_sec_);
}

ProbabilityStragglers::ProbabilityStragglers(double probability,
                                             double delay_sec, uint64_t seed)
    : probability_(probability), delay_sec_(delay_sec), seed_(seed) {
  FELA_CHECK(IsProbability(probability)) << probability;
  FELA_CHECK(IsDelay(delay_sec)) << delay_sec;
}

double ProbabilityStragglers::DelayFor(int iteration, int worker) const {
  const double u = MixToUnitDouble(
      Mix(seed_, static_cast<uint64_t>(iteration), static_cast<uint64_t>(worker)));
  return u < probability_ ? delay_sec_ : 0.0;
}

std::string ProbabilityStragglers::ToString() const {
  return common::StrFormat("probability(p=%.2f, d=%.1fs)", probability_,
                           delay_sec_);
}

HeterogeneousWorker::HeterogeneousWorker(int victim, double slowdown)
    : victim_(victim), slowdown_(slowdown) {
  FELA_CHECK_GE(victim, 0);
  FELA_CHECK(IsSlowdown(slowdown)) << slowdown;
}

double HeterogeneousWorker::SlowdownFor(int, int worker) const {
  return worker == victim_ ? slowdown_ : 1.0;
}

std::string HeterogeneousWorker::ToString() const {
  return common::StrFormat("heterogeneous(w%d, %.2fx slower)", victim_,
                           slowdown_);
}

PersistentStraggler::PersistentStraggler(int victim, double delay_sec)
    : victim_(victim), delay_sec_(delay_sec) {
  FELA_CHECK_GE(victim, 0);
  FELA_CHECK(IsDelay(delay_sec)) << delay_sec;
}

double PersistentStraggler::DelayFor(int, int worker) const {
  return worker == victim_ ? delay_sec_ : 0.0;
}

std::string PersistentStraggler::ToString() const {
  return common::StrFormat("persistent(w%d, d=%.1fs)", victim_, delay_sec_);
}

TransientStragglers::TransientStragglers(int num_workers, double delay_sec,
                                         int burst_iterations, uint64_t seed)
    : num_workers_(num_workers),
      delay_sec_(delay_sec),
      burst_iterations_(burst_iterations),
      seed_(seed) {
  FELA_CHECK_GT(num_workers, 0);
  FELA_CHECK(IsDelay(delay_sec)) << delay_sec;
  FELA_CHECK_GT(burst_iterations, 0);
}

double TransientStragglers::DelayFor(int iteration, int worker) const {
  // Every burst window picks one victim pseudo-randomly.
  const int window = iteration / burst_iterations_;
  const uint64_t victim =
      Mix(seed_, static_cast<uint64_t>(window), 0x5bf03635ULL) %
      static_cast<uint64_t>(num_workers_);
  return static_cast<int>(victim) == worker ? delay_sec_ : 0.0;
}

std::string TransientStragglers::ToString() const {
  return common::StrFormat("transient(d=%.1fs, burst=%d)", delay_sec_,
                           burst_iterations_);
}

}  // namespace fela::sim
