#ifndef FELA_CORE_WORKER_H_
#define FELA_CORE_WORKER_H_

#include <functional>
#include <optional>
#include <vector>

#include "core/token.h"
#include "core/token_server.h"
#include "model/cost_model.h"
#include "model/partition.h"
#include "sim/fabric.h"
#include "sim/gpu.h"
#include "sim/span.h"
#include "sim/trace.h"

namespace fela::core {

/// How workers reach the token server.
struct WorkerCallbacks {
  /// Send a token request control message to the TS.
  std::function<void(sim::NodeId)> send_request;
  /// Send a completion report (with implicit request) to the TS.
  std::function<void(sim::NodeId, const Token&)> send_report;
};

/// Everything a FelaWorker references that is identical across the
/// engine's workers: simulation handles, the model and its partition,
/// the cost model, observability sinks, and the TS callbacks. Workers
/// hold one pointer to this instead of eight — per-worker hot state
/// shrinks to the scalars in FelaWorker itself, which is what lets a
/// 1k–10k-worker arena stay cache-resident (struct-of-shared +
/// array-of-hot layout). Owned by the engine; must outlive its workers.
struct WorkerContext {
  sim::Simulator* sim = nullptr;
  sim::Fabric* fabric = nullptr;
  const model::Model* model = nullptr;
  const std::vector<model::SubModel>* sub_models = nullptr;
  const model::LayerCostModel* cost = nullptr;
  sim::TraceRecorder* trace = nullptr;
  WorkerCallbacks cbs;
};

/// A Fela worker: Trainer (GPU compute) and Coordinator (dependency
/// fetches). Its Parameter Chunks, the token outputs it holds, are
/// recorded once, in the token server's InfoMapping. Event-driven; one
/// token in flight at a time (the §III-D combined report+request cycle).
class FelaWorker {
 public:
  using Callbacks = WorkerCallbacks;

  /// `ctx` carries all engine-shared dependencies; `gpu` is this
  /// worker's device.
  FelaWorker(sim::NodeId id, const WorkerContext* ctx, sim::GpuDevice* gpu);

  FelaWorker(const FelaWorker&) = delete;
  FelaWorker& operator=(const FelaWorker&) = delete;

  /// Starts the iteration: applies the injected straggler sleep (the
  /// GPU is blocked for `straggler_delay` seconds, §V-C) and the
  /// iteration's compute slowdown factor, then requests a token unless a
  /// request from the previous iteration is still unanswered.
  void BeginIteration(int iteration, double straggler_delay,
                      double slowdown = 1.0);

  /// A grant arrived from the TS (engine already applied latency and the
  /// grant's extra_delay). Fetches remote dependencies, then trains. A
  /// grant that arrives while the trainer is busy (a duplicate, or one
  /// that raced a retry) is dropped — the TS lease reclaims it.
  void OnGrant(const Grant& grant);

  /// Enables request retransmission: while a request is unanswered,
  /// fresh requests go out on the fixed backoff schedule that starts at
  /// kRetryTimeoutSec (see fela_config.h; covers requests or grants lost
  /// on a lossy control plane or across a partition). Off by default, so
  /// fault-free runs schedule no timer events.
  void set_retries_enabled(bool enabled) { retries_enabled_ = enabled; }

  /// The worker process died: whatever was fetching/computing is
  /// discarded (the incarnation guard voids in-flight callbacks) and all
  /// timers stop. Token outputs it completed stay fetchable — the fault
  /// model keeps bulk data recoverable from persistent storage
  /// (DESIGN.md §Fault model).
  void OnCrash();

  /// Asks the TS for work if idle with no unanswered request (used when
  /// a recovered worker is re-admitted mid-iteration).
  void RequestWork(int iteration);

  /// Cancels any pending retry timer and turns retries off (run teardown
  /// — leaves no dangling events in the simulator queue, and a token
  /// still computing when the run ends arms no new timer when it
  /// finishes).
  void Quiesce();

  /// Enables token-wait span emission: the interval from each request
  /// (or report's implicit request) to the accepted grant shows up as a
  /// kTokenWait span on this worker's track.
  void set_span_sink(obs::SpanSink* spans) { spans_ = spans; }

  sim::NodeId id() const { return id_; }

  // -- Statistics ---------------------------------------------------------
  int tokens_trained() const { return tokens_trained_; }
  double samples_trained() const { return samples_trained_; }
  uint64_t retries() const { return retries_; }

 private:
  void StartCompute(Token token);
  void OnComputeDone(Token token);
  void BeginTokenWait();
  void ArmRetryTimer();
  void CancelRetryTimer();
  void OnRetryFire();

  sim::Simulator* sim() const { return ctx_->sim; }
  sim::TraceRecorder* trace() const { return ctx_->trace; }

  sim::NodeId id_;
  const WorkerContext* ctx_;
  sim::GpuDevice* gpu_;
  obs::SpanSink* spans_ = nullptr;
  /// Open from request send to grant accept; lives across simulator
  /// callbacks because the span clock is simulated time.
  std::optional<obs::ScopedSpan> token_wait_;

  double slowdown_ = 1.0;
  bool request_outstanding_ = false;
  bool busy_ = false;
  int tokens_trained_ = 0;
  double samples_trained_ = 0.0;
  /// Bumped on every crash; fetch/compute completions captured under an
  /// older incarnation are discarded (the work died with the process).
  int incarnation_ = 0;
  int iteration_ = -1;
  bool retries_enabled_ = false;
  /// Consecutive retries of the *current* request (backoff exponent);
  /// reset whenever a fresh request cycle starts or a grant lands.
  int retry_attempt_ = 0;
  sim::EventId retry_timer_ = sim::kInvalidEventId;
  uint64_t retries_ = 0;
};

}  // namespace fela::core

#endif  // FELA_CORE_WORKER_H_
