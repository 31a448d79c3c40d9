#include "sim/faults.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace fela::sim {

namespace {

/// Each (seed, index, salt) decision is an independent, platform-stable
/// draw via common::MixSeed feeding a seeded fela Rng.
bool SeededBernoulli(uint64_t seed, uint64_t index, uint64_t salt, double p) {
  if (p <= 0.0) return false;
  common::Rng rng(common::MixSeed(seed, index, salt));
  return rng.Bernoulli(p);
}

/// Windows to scan past the query point before concluding "no more
/// transitions". With any realistic crash probability the first hit is
/// found within a handful of windows; the cap only guards degenerate
/// configurations from spinning forever.
constexpr int64_t kMaxWindowScan = 1 << 20;

}  // namespace

bool FaultSchedule::AnyUnreachableDuring(SimTime t0, SimTime t1, int worker,
                                         int anchor) const {
  if (!Active()) return false;
  auto unreachable = [&](SimTime t) {
    return IsDownAt(t, worker) || Partitioned(t, worker, anchor);
  };
  if (unreachable(t0) || unreachable(t1)) return true;
  SimTime t = NextTransitionAfter(t0);
  while (t <= t1) {
    if (unreachable(t)) return true;
    const SimTime next = NextTransitionAfter(t);
    if (next <= t) break;  // defensive: schedules must make progress
    t = next;
  }
  return false;
}

SimTime FaultSchedule::NextReachableAfter(SimTime t, int worker,
                                          int anchor) const {
  auto unreachable = [&](SimTime when) {
    return IsDownAt(when, worker) || Partitioned(when, worker, anchor);
  };
  if (!unreachable(t)) return t;
  SimTime cur = t;
  while (true) {
    const SimTime next = NextTransitionAfter(cur);
    if (IsNever(next) || next <= cur) return kNeverTime;
    if (!unreachable(next)) return next;
    cur = next;
  }
}

// -- ScriptedCrashes --------------------------------------------------------

ScriptedCrashes::ScriptedCrashes(std::vector<CrashEvent> events)
    : events_(std::move(events)) {
  for (const CrashEvent& e : events_) {
    FELA_CHECK_GE(e.worker, 0);
    FELA_CHECK(IsWindow(e.crash_time, e.recover_time))
        << e.crash_time << " .. " << e.recover_time;
  }
}

bool ScriptedCrashes::IsDownAt(SimTime time, int worker) const {
  for (const CrashEvent& e : events_) {
    if (e.worker == worker && time >= e.crash_time && time < e.recover_time) {
      return true;
    }
  }
  return false;
}

SimTime ScriptedCrashes::NextTransitionAfter(SimTime t) const {
  SimTime best = kNeverTime;
  for (const CrashEvent& e : events_) {
    if (e.crash_time > t) best = std::min(best, e.crash_time);
    if (e.recover_time > t && !IsNever(e.recover_time)) {
      best = std::min(best, e.recover_time);
    }
  }
  return best;
}

common::Status ScriptedCrashes::Validate(int num_workers) const {
  for (const CrashEvent& e : events_) {
    if (e.worker < 0 || e.worker >= num_workers) {
      return common::Status::InvalidArgument(common::StrFormat(
          "scripted crash references worker %d outside [0, %d)", e.worker,
          num_workers));
    }
  }
  return common::Status::Ok();
}

std::string ScriptedCrashes::ToString() const {
  std::string out = "scripted(";
  for (size_t i = 0; i < events_.size(); ++i) {
    const CrashEvent& e = events_[i];
    if (i > 0) out += ", ";
    if (IsNever(e.recover_time)) {
      out += common::StrFormat("w%d@%.2fs", e.worker, e.crash_time);
    } else {
      out += common::StrFormat("w%d@[%.2fs,%.2fs)", e.worker, e.crash_time,
                               e.recover_time);
    }
  }
  return out + ")";
}

// -- RandomCrashes ----------------------------------------------------------

RandomCrashes::RandomCrashes(int num_workers, double crash_prob,
                             SimTime window_sec, SimTime down_sec,
                             uint64_t seed, int first_worker)
    : num_workers_(num_workers),
      crash_prob_(crash_prob),
      window_sec_(window_sec),
      down_sec_(down_sec),
      seed_(seed),
      first_worker_(first_worker) {
  FELA_CHECK_GT(num_workers, 0);
  FELA_CHECK(IsProbability(crash_prob)) << crash_prob;
  FELA_CHECK(IsDuration(window_sec)) << window_sec;
  FELA_CHECK(IsDuration(down_sec)) << down_sec;
  FELA_CHECK(first_worker >= 0 && first_worker < num_workers) << first_worker;
}

bool RandomCrashes::CrashesInWindow(int64_t window, int worker) const {
  if (window < 0 || worker < first_worker_) return false;
  return SeededBernoulli(seed_, static_cast<uint64_t>(window) * 131071ULL +
                                    static_cast<uint64_t>(worker),
                         0xc2a50001ULL, crash_prob_);
}

bool RandomCrashes::IsDownAt(SimTime time, int worker) const {
  if (crash_prob_ <= 0.0 || time < 0.0) return false;
  // A crash in window k downs the worker over [k*W, k*W + down_sec).
  const int64_t last = static_cast<int64_t>(std::floor(time / window_sec_));
  const int64_t from =
      IsNever(down_sec_)
          ? 0
          : std::max<int64_t>(
                0, last - static_cast<int64_t>(
                              std::ceil(down_sec_ / window_sec_)));
  for (int64_t k = from; k <= last; ++k) {
    if (!CrashesInWindow(k, worker)) continue;
    const SimTime crash = static_cast<SimTime>(k) * window_sec_;
    if (time >= crash && (IsNever(down_sec_) || time < crash + down_sec_)) {
      return true;
    }
  }
  return false;
}

SimTime RandomCrashes::NextTransitionAfter(SimTime t) const {
  if (crash_prob_ <= 0.0) return kNeverTime;
  const int64_t span =
      IsNever(down_sec_)
          ? 0
          : static_cast<int64_t>(std::ceil(down_sec_ / window_sec_));
  const int64_t from = std::max<int64_t>(
      0, static_cast<int64_t>(std::floor(t / window_sec_)) - span);
  SimTime best = kNeverTime;
  for (int64_t k = from; k < from + kMaxWindowScan; ++k) {
    const SimTime crash = static_cast<SimTime>(k) * window_sec_;
    if (crash > t && crash >= best) break;  // later windows only get later
    for (int w = first_worker_; w < num_workers_; ++w) {
      if (!CrashesInWindow(k, w)) continue;
      if (crash > t) best = std::min(best, crash);
      if (!IsNever(down_sec_) && crash + down_sec_ > t) {
        best = std::min(best, crash + down_sec_);
      }
    }
  }
  return best;
}

std::string RandomCrashes::ToString() const {
  return common::StrFormat("random-crashes(p=%.3f/%.1fs, down=%s)",
                           crash_prob_, window_sec_,
                           IsNever(down_sec_)
                               ? "forever"
                               : common::StrFormat("%.1fs", down_sec_).c_str());
}

// -- LossyControlPlane ------------------------------------------------------

LossyControlPlane::LossyControlPlane(double drop_prob, double dup_prob,
                                     uint64_t seed)
    : drop_prob_(drop_prob), dup_prob_(dup_prob), seed_(seed) {
  FELA_CHECK(IsDropProbability(drop_prob)) << drop_prob;
  FELA_CHECK(IsProbability(dup_prob)) << dup_prob;
}

bool LossyControlPlane::DropControl(uint64_t seq) const {
  return SeededBernoulli(seed_, seq, 0xd20b0001ULL, drop_prob_);
}

bool LossyControlPlane::DuplicateControl(uint64_t seq) const {
  return SeededBernoulli(seed_, seq, 0xd0b1e002ULL, dup_prob_);
}

std::string LossyControlPlane::ToString() const {
  return common::StrFormat("lossy-control(drop=%.3f, dup=%.3f)", drop_prob_,
                           dup_prob_);
}

// -- NetworkPartition -------------------------------------------------------

NetworkPartition::NetworkPartition(std::vector<PartitionEvent> events)
    : events_(std::move(events)) {
  for (PartitionEvent& e : events_) {
    FELA_CHECK(IsWindow(e.start, e.end)) << e.start << " .. " << e.end;
    std::sort(e.side_a.begin(), e.side_a.end());
    for (int w : e.side_a) FELA_CHECK_GE(w, 0);
  }
}

SimTime NetworkPartition::NextTransitionAfter(SimTime t) const {
  SimTime best = kNeverTime;
  for (const PartitionEvent& e : events_) {
    if (e.start > t) best = std::min(best, e.start);
    if (e.end > t && !IsNever(e.end)) best = std::min(best, e.end);
  }
  return best;
}

bool NetworkPartition::Partitioned(SimTime time, int a, int b) const {
  if (a == b) return false;
  for (const PartitionEvent& e : events_) {
    if (time < e.start || time >= e.end) continue;
    const bool a_in = std::binary_search(e.side_a.begin(), e.side_a.end(), a);
    const bool b_in = std::binary_search(e.side_a.begin(), e.side_a.end(), b);
    if (a_in != b_in) return true;
  }
  return false;
}

common::Status NetworkPartition::Validate(int num_workers) const {
  for (const PartitionEvent& e : events_) {
    for (int w : e.side_a) {
      if (w < 0 || w >= num_workers) {
        return common::Status::InvalidArgument(common::StrFormat(
            "partition side references worker %d outside [0, %d)", w,
            num_workers));
      }
    }
  }
  return common::Status::Ok();
}

std::string NetworkPartition::ToString() const {
  std::string out = "partition(";
  for (size_t i = 0; i < events_.size(); ++i) {
    const PartitionEvent& e = events_[i];
    if (i > 0) out += ", ";
    out += common::StrFormat("%zu-node side @", e.side_a.size());
    if (IsNever(e.end)) {
      out += common::StrFormat("%.2fs", e.start);
    } else {
      out += common::StrFormat("[%.2fs,%.2fs)", e.start, e.end);
    }
  }
  return out + ")";
}

// -- GrayFailures -----------------------------------------------------------

GrayFailures::GrayFailures(std::vector<GrayEvent> events)
    : events_(std::move(events)) {
  for (const GrayEvent& e : events_) {
    FELA_CHECK_GE(e.worker, 0);
    FELA_CHECK(IsWindow(e.start, e.end)) << e.start << " .. " << e.end;
    FELA_CHECK(IsSlowdown(e.delay_factor)) << e.delay_factor;
  }
}

double GrayFailures::ControlDelayFactor(SimTime time, int worker) const {
  double factor = 1.0;
  for (const GrayEvent& e : events_) {
    if (e.worker == worker && time >= e.start && time < e.end) {
      factor = std::max(factor, e.delay_factor);
    }
  }
  return factor;
}

common::Status GrayFailures::Validate(int num_workers) const {
  for (const GrayEvent& e : events_) {
    if (e.worker < 0 || e.worker >= num_workers) {
      return common::Status::InvalidArgument(common::StrFormat(
          "gray failure references worker %d outside [0, %d)", e.worker,
          num_workers));
    }
  }
  return common::Status::Ok();
}

std::string GrayFailures::ToString() const {
  std::string out = "gray(";
  for (size_t i = 0; i < events_.size(); ++i) {
    const GrayEvent& e = events_[i];
    if (i > 0) out += ", ";
    out += common::StrFormat("w%d x%.1f @[%.2fs,%.2fs)", e.worker,
                             e.delay_factor, e.start, e.end);
  }
  return out + ")";
}

// -- CompositeFaults --------------------------------------------------------

CompositeFaults::CompositeFaults(
    std::vector<std::unique_ptr<FaultSchedule>> parts)
    : parts_(std::move(parts)) {
  for (const auto& p : parts_) FELA_CHECK(p != nullptr);
}

bool CompositeFaults::IsDownAt(SimTime time, int worker) const {
  for (const auto& p : parts_) {
    if (p->IsDownAt(time, worker)) return true;
  }
  return false;
}

SimTime CompositeFaults::NextTransitionAfter(SimTime t) const {
  SimTime best = kNeverTime;
  for (const auto& p : parts_) best = std::min(best, p->NextTransitionAfter(t));
  return best;
}

bool CompositeFaults::DropControl(uint64_t seq) const {
  for (const auto& p : parts_) {
    if (p->DropControl(seq)) return true;
  }
  return false;
}

bool CompositeFaults::DuplicateControl(uint64_t seq) const {
  for (const auto& p : parts_) {
    if (p->DuplicateControl(seq)) return true;
  }
  return false;
}

bool CompositeFaults::Partitioned(SimTime time, int a, int b) const {
  for (const auto& p : parts_) {
    if (p->Partitioned(time, a, b)) return true;
  }
  return false;
}

double CompositeFaults::ControlDelayFactor(SimTime time, int worker) const {
  double factor = 1.0;
  for (const auto& p : parts_) {
    factor = std::max(factor, p->ControlDelayFactor(time, worker));
  }
  return factor;
}

common::Status CompositeFaults::Validate(int num_workers) const {
  for (const auto& p : parts_) {
    common::Status s = p->Validate(num_workers);
    if (!s.ok()) return s;
  }
  return common::Status::Ok();
}

std::string CompositeFaults::ToString() const {
  std::string out = "composite(";
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (i > 0) out += " + ";
    out += parts_[i]->ToString();
  }
  return out + ")";
}

// -- FaultMonitor -----------------------------------------------------------

FaultMonitor::FaultMonitor(Simulator* sim, const FaultSchedule* faults,
                           int num_workers, Callbacks cbs)
    : sim_(sim), faults_(faults), cbs_(std::move(cbs)) {
  FELA_CHECK(sim != nullptr && faults != nullptr);
  FELA_CHECK_GT(num_workers, 0);
  down_.assign(static_cast<size_t>(num_workers), false);
  cut_.assign(static_cast<size_t>(num_workers), false);
}

void FaultMonitor::Start() {
  if (!faults_->Active()) return;
  const SimTime now = sim_->now();
  for (size_t w = 0; w < down_.size(); ++w) {
    down_[w] = faults_->IsDownAt(now, static_cast<int>(w));
    if (down_[w] && cbs_.on_crash) cbs_.on_crash(static_cast<int>(w));
  }
  RefreshCuts();
  ScheduleNext(now);
}

void FaultMonitor::Stop() {
  if (pending_ != kInvalidEventId) {
    sim_->Cancel(pending_);
    pending_ = kInvalidEventId;
  }
}

void FaultMonitor::ScheduleNext(SimTime after) {
  const SimTime next = faults_->NextTransitionAfter(after);
  if (IsNever(next)) return;
  pending_ = sim_->ScheduleAt(next, [this] {
    pending_ = kInvalidEventId;
    OnWakeup();
  });
}

void FaultMonitor::OnWakeup() {
  const SimTime now = sim_->now();
  for (size_t w = 0; w < down_.size(); ++w) {
    const bool d = faults_->IsDownAt(now, static_cast<int>(w));
    if (d == down_[w]) continue;
    down_[w] = d;
    if (d) {
      if (cbs_.on_crash) cbs_.on_crash(static_cast<int>(w));
    } else {
      if (cbs_.on_recover) cbs_.on_recover(static_cast<int>(w));
    }
  }
  RefreshCuts();
  ScheduleNext(now);
}

void FaultMonitor::RefreshCuts() {
  if (!anchor_ || !faults_->Active()) return;
  const SimTime now = sim_->now();
  const int anchor = anchor_();
  // Two passes: settle all state first so callbacks observe a consistent
  // IsCut view (the engine's quorum check reads it mid-callback).
  std::vector<int> cuts;
  std::vector<int> heals;
  for (size_t w = 0; w < cut_.size(); ++w) {
    const int worker = static_cast<int>(w);
    const bool c = faults_->Partitioned(now, worker, anchor);
    if (c == cut_[w]) continue;
    cut_[w] = c;
    (c ? cuts : heals).push_back(worker);
  }
  for (int w : cuts) {
    if (cbs_.on_cut) cbs_.on_cut(w);
  }
  for (int w : heals) {
    if (cbs_.on_heal) cbs_.on_heal(w);
  }
}

}  // namespace fela::sim
