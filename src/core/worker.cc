#include "core/worker.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "core/fela_config.h"

namespace fela::core {

FelaWorker::FelaWorker(sim::NodeId id, const WorkerContext* ctx,
                       sim::GpuDevice* gpu)
    : id_(id), ctx_(ctx), gpu_(gpu) {
  FELA_CHECK(ctx_ != nullptr);
}

void FelaWorker::BeginTokenWait() {
  if (spans_ == nullptr || !spans_->enabled()) return;
  token_wait_.emplace(spans_, id_, obs::Phase::kTokenWait, iteration_);
}

void FelaWorker::BeginIteration(int iteration, double straggler_delay,
                                double slowdown) {
  slowdown_ = slowdown;
  iteration_ = iteration;
  if (straggler_delay > 0.0) {
    gpu_->BlockUntil(sim()->now() + straggler_delay);
    FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kStragglerSleep,
               FELA_TOK("it=%d d=%.2fs"), iteration, straggler_delay);
  }
  if (!request_outstanding_ && !busy_) {
    request_outstanding_ = true;
    retry_attempt_ = 0;
    FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kTokenRequest,
               FELA_TOK("it=%d"), iteration);
    BeginTokenWait();
    ctx_->cbs.send_request(id_);
    ArmRetryTimer();
  }
}

void FelaWorker::RequestWork(int iteration) {
  iteration_ = iteration;
  if (request_outstanding_ || busy_) return;
  request_outstanding_ = true;
  retry_attempt_ = 0;
  FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kTokenRequest,
             FELA_TOK("it=%d (rejoin)"), iteration);
  BeginTokenWait();
  ctx_->cbs.send_request(id_);
  ArmRetryTimer();
}

void FelaWorker::OnCrash() {
  ++incarnation_;
  busy_ = false;
  request_outstanding_ = false;
  retry_attempt_ = 0;
  // The wait ended in a crash, not a grant; the interval up to now is
  // still time spent waiting (the crashed span the engine emits outranks
  // it in attribution anyway).
  token_wait_.reset();
  CancelRetryTimer();
}

void FelaWorker::Quiesce() {
  retries_enabled_ = false;
  CancelRetryTimer();
  if (token_wait_) {
    // The run ended before the grant came; an open-ended wait would
    // distort attribution of the last iteration.
    token_wait_->Cancel();
    token_wait_.reset();
  }
}

void FelaWorker::ArmRetryTimer() {
  if (!retries_enabled_) return;
  CancelRetryTimer();
  const double delay = common::JitteredBackoffSec(
      kRetryTimeoutSec, kRetryBackoffMult, kRetryTimeoutMaxSec,
      retry_attempt_, kRetryJitterSeed, static_cast<uint64_t>(id_));
  const int inc = incarnation_;
  retry_timer_ = sim()->Schedule(delay, [this, inc] {
    retry_timer_ = sim::kInvalidEventId;
    if (inc != incarnation_) return;
    OnRetryFire();
  });
}

void FelaWorker::CancelRetryTimer() {
  if (retry_timer_ != sim::kInvalidEventId) {
    sim()->Cancel(retry_timer_);
    retry_timer_ = sim::kInvalidEventId;
  }
}

void FelaWorker::OnRetryFire() {
  if (!request_outstanding_ || busy_) return;
  ++retries_;
  ++retry_attempt_;  // next wait backs off further
  FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kRequestRetry,
             FELA_TOK("it=%d n=%llu"), iteration_,
             static_cast<unsigned long long>(retries_));
  ctx_->cbs.send_request(id_);
  ArmRetryTimer();
}

void FelaWorker::OnGrant(const Grant& grant) {
  if (busy_) {
    // A duplicate grant, or one that raced a retransmitted request. The
    // TS lease will reclaim the token; just drop it.
    return;
  }
  request_outstanding_ = false;
  retry_attempt_ = 0;
  CancelRetryTimer();
  token_wait_.reset();  // emits the request -> grant interval
  busy_ = true;
  if (grant.cross_shard) {
    // Hierarchical steal: the token came from another sub-distributor's
    // rack. Only sharded servers emit this variant, so unsharded
    // transcripts keep their historical bytes.
    FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kTokenGrant,
               FELA_TOK("Token_%lld b=%g cross-shard remote_fetches=%zu"),
               static_cast<long long>(grant.token.id), grant.token.batch,
               grant.remote_fetches.size());
  } else {
    FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kTokenGrant,
               FELA_TOK("Token_%lld b=%g stolen=%d remote_fetches=%zu"),
               static_cast<long long>(grant.token.id), grant.token.batch,
               static_cast<int>(grant.stolen), grant.remote_fetches.size());
  }

  if (grant.remote_fetches.empty()) {
    StartCompute(grant.token);
    return;
  }

  // Coordinator: gather missing dependencies from their holders, then
  // hand the token to the Trainer.
  FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kFetchStart,
             FELA_TOK("%zu transfers"), grant.remote_fetches.size());
  auto remaining = std::make_shared<int>(
      static_cast<int>(grant.remote_fetches.size()));
  Token token = grant.token;
  const int inc = incarnation_;
  for (const auto& [holder, bytes] : grant.remote_fetches) {
    ctx_->fabric->Transfer(holder, id_, bytes,
                           [this, remaining, token, inc]() mutable {
      if (--*remaining == 0) {
        if (inc != incarnation_) return;  // fetched for a dead process
        FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kFetchEnd);
        StartCompute(std::move(token));
      }
    });
  }
}

void FelaWorker::StartCompute(Token token) {
  const model::SubModel& sm =
      (*ctx_->sub_models)[static_cast<size_t>(token.level)];
  const double duration =
      ctx_->cost->RangeSeconds(*ctx_->model, sm.first_layer, sm.last_layer,
                               token.batch) *
      slowdown_;
  FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kComputeStart,
             FELA_TOK("Token_%lld b=%g dur=%.4fs"),
             static_cast<long long>(token.id), token.batch, duration);
  const int inc = incarnation_;
  gpu_->Enqueue(duration, [this, token = std::move(token), inc]() mutable {
    if (inc != incarnation_) return;  // computed by a dead process
    OnComputeDone(std::move(token));
  });
}

void FelaWorker::OnComputeDone(Token token) {
  ++tokens_trained_;
  samples_trained_ += token.batch;
  busy_ = false;
  FELA_TRACE(trace(), sim()->now(), id_, sim::TraceKind::kComputeEnd,
             FELA_TOK("Token_%lld b=%g it=%d"),
             static_cast<long long>(token.id), token.batch, token.iteration);
  // Combined report + request: the TS serves our implicit request.
  request_outstanding_ = true;
  retry_attempt_ = 0;
  BeginTokenWait();
  ctx_->cbs.send_report(id_, token);
  ArmRetryTimer();
}

}  // namespace fela::core
