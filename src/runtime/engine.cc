#include "runtime/engine.h"

#include "common/logging.h"

namespace fela::runtime {

double RunStats::MeanIterationSeconds() const {
  if (iterations.empty()) return 0.0;
  double s = 0.0;
  for (const auto& it : iterations) s += it.duration();
  return s / static_cast<double>(iterations.size());
}

double RunStats::AverageThroughput(double total_batch) const {
  FELA_CHECK_GT(total_time, 0.0);
  return total_batch * static_cast<double>(iterations.size()) / total_time;
}

double RunStats::EffectiveThroughput(double total_batch) const {
  if (stalled) return 0.0;
  return AverageThroughput(total_batch);
}

RunStats Engine::Run(int iterations) {
  FELA_CHECK_GT(iterations, 0);
  FELA_CHECK(target_iterations_ == 0) << "Run() may be called once";
  target_iterations_ = iterations;
  cluster_->fabric().ResetStats();
  OnRunStart();
  StartIteration(0);
  cluster_->simulator().Run();
  if (!run_complete_) {
    FELA_CHECK(stats_.stalled || MayStallOnDrain())
        << "simulation drained before finishing";
    stats_.stalled = true;
    if (iter_span_) {
      // The iteration never finished; an open-ended framing span would
      // claim the stall window as productive time.
      iter_span_->Cancel();
      iter_span_.reset();
    }
  }
  // A completed run ends with its last iteration; events after it (a
  // late report of a reclaimed token) are not run time, nor is compute
  // that runs after it, so FinishIteration took the busy total at that
  // end. A stalled run lasts until the queue drained.
  if (run_complete_) {
    stats_.total_time = stats_.iterations.back().end;
  } else {
    stats_.total_time = cluster_->simulator().now();
    stats_.total_gpu_busy = cluster_->TotalGpuBusy();
  }
  stats_.total_data_bytes = cluster_->fabric().total_data_bytes();
  stats_.control_messages = cluster_->fabric().control_message_count();
  OnRunEnd();
  return stats_;
}

void Engine::BeginIteration(int iteration, common::TokenizedDetail detail) {
  current_iteration_ = iteration;
  iteration_start_ = cluster_->simulator().now();
  iter_span_.emplace(&cluster_->spans(), cluster_->num_workers(),
                     obs::Phase::kIteration, iteration, detail);
}

void Engine::FinishIteration() {
  stats_.iterations.push_back(
      IterationStats{iteration_start_, cluster_->simulator().now()});
  iter_span_.reset();  // emits the iteration framing span
  if (current_iteration_ + 1 < target_iterations_) {
    StartIteration(current_iteration_ + 1);
  } else {
    run_complete_ = true;
    stats_.total_gpu_busy = cluster_->TotalGpuBusy();
  }
}

void Engine::SleepIfStraggler(int worker) {
  const double delay =
      cluster_->stragglers().DelayFor(current_iteration_, worker);
  if (delay > 0.0) {
    cluster_->gpu(worker).BlockUntil(cluster_->simulator().now() + delay);
  }
}

double PerIterationDelay(const RunStats& with_stragglers,
                         const RunStats& baseline) {
  FELA_CHECK_EQ(with_stragglers.iterations.size(), baseline.iterations.size());
  FELA_CHECK(!baseline.iterations.empty());
  return (with_stragglers.total_time - baseline.total_time) /
         static_cast<double>(baseline.iterations.size());
}

}  // namespace fela::runtime
