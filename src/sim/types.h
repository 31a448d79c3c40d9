#ifndef FELA_SIM_TYPES_H_
#define FELA_SIM_TYPES_H_

#include <cstdint>
#include <limits>

namespace fela::sim {

/// Simulated time in seconds since experiment start.
using SimTime = double;

/// "Never happens" sentinel (e.g. FaultSchedule::NextTransitionAfter when
/// no transition remains, CrashEvent::recover_time for fail-stop).
inline constexpr SimTime kNeverTime =
    std::numeric_limits<SimTime>::infinity();

/// True iff `t` is the kNeverTime sentinel. The dedicated helper (rather
/// than `t == kNeverTime` at call sites) keeps exact sentinel tests
/// clear of -Wfloat-equal: infinity is the one SimTime value strictly
/// above max().
constexpr bool IsNever(SimTime t) {
  return t > std::numeric_limits<SimTime>::max();
}

/// Exact SimTime equality for intentional tie-breaks on event times that
/// are copied, never recomputed (two spans ending at the same instant,
/// a residue of exactly zero). Written without `==` so intentional exact
/// comparisons are distinguishable from accidental ones, which
/// -Wfloat-equal rejects in the simulation libraries.
constexpr bool TimeEq(SimTime a, SimTime b) { return !(a < b) && !(b < a); }

/// Parameter ranges of the straggler and fault schedules, one definition
/// each: their constructors FELA_CHECK these and fuzz repro readers
/// reject a field outside them, so the two cannot drift. NaN is in none.
/// A drop probability stops short of 1, which would lose every message;
/// a duration may be kNeverTime (forever).
constexpr bool IsProbability(double p) { return p >= 0.0 && p <= 1.0; }
constexpr bool IsDropProbability(double p) { return p >= 0.0 && p < 1.0; }
constexpr bool IsDelay(double sec) { return sec >= 0.0; }
constexpr bool IsDuration(double sec) { return sec > 0.0; }
constexpr bool IsSlowdown(double factor) { return factor >= 1.0; }
/// A scripted [start, end) window: starts at or after 0, ends after it.
constexpr bool IsWindow(SimTime start, SimTime end) {
  return start >= 0.0 && end > start;
}

/// Cluster node index, 0-based. Workers are nodes; the token server is
/// co-located with node 0 (the paper notes TS is not compute-intensive).
using NodeId = int;

/// Most workers an external input (a FELATRB1 header, a fuzz repro)
/// may claim: 16x the largest cluster any bench or test builds (4096).
/// Parsers reject larger counts before anything is sized by them.
inline constexpr int kMaxInputWorkers = 65536;

/// Most samples per iteration an input may ask for: 16 per worker at
/// kMaxInputWorkers, 16x the largest batch any bench builds (65,536).
/// Engines round batch quotients up to int counts (micro-batches, tokens);
/// this keeps each inside int for divisors of at least one sample. NaN
/// and infinity are outside it too.
inline constexpr double kMaxInputBatch = 16.0 * kMaxInputWorkers;
constexpr bool IsTotalBatch(double batch) {
  return batch > 0.0 && batch <= kMaxInputBatch;
}

/// Handle returned by Simulator::Schedule (usable for cancellation).
using EventId = uint64_t;

inline constexpr EventId kInvalidEventId = 0;

}  // namespace fela::sim

#endif  // FELA_SIM_TYPES_H_
