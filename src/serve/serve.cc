#include "serve/serve.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "ce/residual.h"
#include "common/check.h"
#include "common/parallel.h"
#include "conformal/interval.h"
#include "conformal/online.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "query/validate.h"

namespace confcard {
namespace serve {
namespace {

using SteadyClock = std::chrono::steady_clock;

double MicrosBetween(SteadyClock::time_point from, SteadyClock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// One queued executed-query observation. Slots are preallocated per
/// shard and recycled through a free ring, so a steady-state Observe
/// reuses each slot's predicate capacity and allocates nothing.
struct alignas(64) FeedbackSlot {
  Query query;
  double truth = 0.0;
};

}  // namespace

void Request::Wait() const {
  int spins = 0;
  while (!done()) {
    CpuRelax();
    // Oversubscribed hosts (single-core CI) need the worker scheduled in.
    if ((++spins & 0xFF) == 0) std::this_thread::yield();
  }
}

struct ServeFrontEnd::ServeMetrics {
  obs::Counter& requests;
  obs::Counter& accepted;
  obs::Counter& shed_queue_full;
  obs::Counter& shed_breaker;
  obs::Counter& shed_stopped;
  obs::Counter& degraded;
  obs::Counter& batches;
  obs::Counter& drained_on_stop;
  obs::Counter& feedback_observed;
  obs::Counter& feedback_applied;
  obs::Counter& feedback_dropped;
  obs::Counter& drift_up;
  obs::Counter& drift_down;
  obs::Counter& drift_recalibrations;
  obs::Histogram& batch_size;
  obs::Histogram& queue_us;
  obs::Histogram& total_us;
  obs::Histogram& feedback_apply_us;
  obs::Histogram& drift_time_in_stage_us;
  ServeMetrics()
      : requests(obs::Metrics().GetCounter("serve.requests")),
        accepted(obs::Metrics().GetCounter("serve.accepted")),
        shed_queue_full(obs::Metrics().GetCounter("serve.shed.queue_full")),
        shed_breaker(obs::Metrics().GetCounter("serve.shed.breaker")),
        shed_stopped(obs::Metrics().GetCounter("serve.shed.stopped")),
        degraded(obs::Metrics().GetCounter("serve.degraded")),
        batches(obs::Metrics().GetCounter("serve.batch.count")),
        drained_on_stop(obs::Metrics().GetCounter("serve.drain.stop_served")),
        feedback_observed(obs::Metrics().GetCounter("feedback.observed")),
        feedback_applied(obs::Metrics().GetCounter("feedback.applied")),
        feedback_dropped(obs::Metrics().GetCounter("feedback.dropped")),
        drift_up(obs::Metrics().GetCounter("serve.drift.transitions.up")),
        drift_down(obs::Metrics().GetCounter("serve.drift.transitions.down")),
        drift_recalibrations(
            obs::Metrics().GetCounter("serve.drift.recalibrations")),
        batch_size(obs::Metrics().GetHistogram("serve.batch.size")),
        queue_us(obs::Metrics().GetHistogram("serve.latency.queue_us")),
        total_us(obs::Metrics().GetHistogram("serve.latency.total_us")),
        feedback_apply_us(obs::Metrics().GetHistogram("feedback.apply_us")),
        drift_time_in_stage_us(
            obs::Metrics().GetHistogram("serve.drift.time_in_stage_us")) {}
};

ServeFrontEnd::ServeMetrics& ServeFrontEnd::SharedMetrics() {
  static ServeMetrics* metrics = new ServeMetrics();
  return *metrics;
}

struct ServeFrontEnd::Shard {
  explicit Shard(size_t queue_capacity) : queue(queue_capacity) {}

  /// Many producers, one consumer at a time: the worker, then Stop()
  /// after the join. So the consumer pops without a CAS.
  MpmcBoundedQueue<Request*> queue;
  const GuardedEstimator* guard = nullptr;
  int index = 0;
  /// Approximate occupancy (push increments; the consumer subtracts each
  /// batch once it is assembled); drives the wake predicate and the
  /// breaker admission watermark only, never correctness.
  std::atomic<int> depth{0};
  std::mutex wake_mu;
  std::condition_variable wake_cv;
  /// Set under wake_mu right before the worker sleeps; producers only
  /// pay the notify mutex when a sleeper might exist.
  std::atomic<bool> idle{false};
  std::thread worker;

  // Worker-private buffers, preallocated to max_batch so the batch cycle
  // never grows them. Stats are read by the front-end only when the
  // shard is quiesced.
  std::vector<Request*> batch;
  std::vector<Query> queries;
  std::vector<GuardedEstimate> outs;
  GuardBatchScratch scratch;
  std::vector<uint64_t> batch_size_counts;
  /// Written by the worker only.
  std::atomic<uint64_t> hot_allocs{0};

  // ---- drift-adaptation state (engaged only when Options::feedback).
  // recal/corrector/detector are worker-owned: touched by the shard's
  // worker at micro-batch boundaries, by WarmupFeedback while quiesced,
  // and by Stop() after the join. stage_atomic mirrors the detector's
  // stage for cross-thread observers.
  std::unique_ptr<OnlineConformal> recal;
  std::unique_ptr<ResidualCorrector> corrector;
  std::unique_ptr<DriftDetector> detector;
  std::atomic<int> stage_atomic{0};
  std::chrono::steady_clock::time_point stage_since{};
  // Feedback rings: producers move preallocated slots free -> pending;
  // the worker drains pending and recycles slots back to free. Slot
  // count == ring capacity, so the pending push can never fail. Every
  // Observe caller pops fb_free; fb_pending, like `queue`, has one
  // consumer at a time.
  std::vector<FeedbackSlot> fb_slots;
  std::unique_ptr<MpmcBoundedQueue<FeedbackSlot*>> fb_pending;
  std::unique_ptr<MpmcBoundedQueue<FeedbackSlot*>> fb_free;
  std::atomic<uint64_t> fb_dropped{0};
  // Worker-private scratch for the per-observation re-estimate.
  GuardBatchScratch fb_scratch;
};

ServeFrontEnd::ServeFrontEnd(std::vector<const GuardedEstimator*> shard_guards,
                             const SplitConformal& conformal, double num_rows,
                             Options options)
    : conformal_(&conformal),
      scoring_(&conformal.scoring()),
      num_rows_(num_rows),
      options_(options),
      metrics_(SharedMetrics()) {
  CONFCARD_CHECK_MSG(!shard_guards.empty(),
                     "serve: need at least one shard replica");
  CONFCARD_CHECK_MSG(conformal.calibrated(),
                     "serve: conformal predictor must be calibrated");
  CONFCARD_CHECK_MSG(options_.max_batch >= 1, "serve: max_batch must be >= 1");
  CONFCARD_CHECK_MSG(options_.flush_timeout_us >= 0,
                     "serve: flush_timeout_us must be >= 0");
  CONFCARD_CHECK_MSG(options_.queue_capacity >= 1,
                     "serve: queue_capacity must be >= 1");
  if (options_.feedback) {
    CONFCARD_CHECK_MSG(options_.feedback_capacity >= 1,
                       "serve: feedback_capacity must be >= 1");
  }
  breaker_shed_depth_ = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(options_.queue_capacity) *
                             kBreakerShedWatermark));
  const size_t b = static_cast<size_t>(options_.max_batch);
  shards_.reserve(shard_guards.size());
  for (size_t i = 0; i < shard_guards.size(); ++i) {
    CONFCARD_CHECK_MSG(shard_guards[i] != nullptr, "serve: null shard guard");
    auto shard = std::make_unique<Shard>(options_.queue_capacity);
    shard->guard = shard_guards[i];
    shard->index = static_cast<int>(i);
    shard->batch.reserve(b);
    shard->queries.resize(b);
    shard->outs.resize(b);
    shard->batch_size_counts.assign(b + 1, 0);
    if (options_.feedback) {
      OnlineConformal::Options ro;
      ro.alpha = conformal.alpha();
      ro.window = kRecalWindow;
      ro.publish_metrics = false;  // per-shard state; gauges would race
      shard->recal =
          std::make_unique<OnlineConformal>(conformal.scoring_ptr(), ro);
      shard->corrector = std::make_unique<ResidualCorrector>();
      // The ladder measures dips against the predictor's own target.
      shard->detector =
          std::make_unique<DriftDetector>(1.0 - conformal.alpha());
      shard->stage_since = SteadyClock::now();
      const size_t fc = options_.feedback_capacity;
      shard->fb_slots.resize(fc);
      shard->fb_pending =
          std::make_unique<MpmcBoundedQueue<FeedbackSlot*>>(fc);
      shard->fb_free = std::make_unique<MpmcBoundedQueue<FeedbackSlot*>>(fc);
      for (FeedbackSlot& slot : shard->fb_slots) {
        shard->fb_free->TryPush(&slot);
      }
    }
    shards_.push_back(std::move(shard));
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { WorkerLoop(s); });
  }
}

ServeFrontEnd::~ServeFrontEnd() { Stop(); }

int ServeFrontEnd::ShardFor(const Query& query) const {
  return static_cast<int>(QueryContentKey(query) %
                          static_cast<uint64_t>(shards_.size()));
}

Admit ServeFrontEnd::Submit(Request* request) {
  metrics_.requests.Increment();
  const int shard_idx = ShardFor(request->query);
  Shard& s = *shards_[shard_idx];
  request->submitted_at = SteadyClock::now();
  request->state.store(Request::kPending, std::memory_order_relaxed);
  // The in-flight count lets Stop() order itself after every Submit that
  // passed the stopping check, closing the submit/drain race.
  inflight_submits_.fetch_add(1, std::memory_order_acq_rel);
  Admit result;
  if (stopping_.load(std::memory_order_acquire)) {
    metrics_.shed_stopped.Increment();
    PublishShed(request, shard_idx);
    result = Admit::kRejectedStopped;
  } else if (s.guard->breaker_open() &&
             s.depth.load(std::memory_order_relaxed) >=
                 static_cast<int>(breaker_shed_depth_)) {
    // Admission control under degradation: a sick primary serves
    // fallback answers more slowly than healthy batched ones, so once
    // the backlog crosses the watermark we fail fast instead of letting
    // the queue absorb (and then time out) the overload.
    metrics_.shed_breaker.Increment();
    PublishShed(request, shard_idx);
    result = Admit::kShedBreaker;
  } else if (!s.queue.TryPush(request)) {
    metrics_.shed_queue_full.Increment();
    PublishShed(request, shard_idx);
    result = Admit::kShedQueueFull;
  } else {
    s.depth.fetch_add(1, std::memory_order_relaxed);
    metrics_.accepted.Increment();
    if (s.idle.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(s.wake_mu);
      s.wake_cv.notify_one();
    }
    result = Admit::kAccepted;
  }
  inflight_submits_.fetch_sub(1, std::memory_order_acq_rel);
  return result;
}

bool ServeFrontEnd::Observe(const Query& query, double true_card) {
  if (!options_.feedback) return false;
  if (stopping_.load(std::memory_order_acquire)) return false;
  metrics_.feedback_observed.Increment();
  Shard& s = *shards_[ShardFor(query)];
  FeedbackSlot* slot = nullptr;
  if (!s.fb_free->TryPop(&slot)) {
    // Backpressure by dropping, never by blocking the executor thread:
    // a lost observation only delays adaptation.
    s.fb_dropped.fetch_add(1, std::memory_order_relaxed);
    metrics_.feedback_dropped.Increment();
    return false;
  }
  slot->query = query;  // element-wise copy reuses the slot's capacity
  slot->truth = true_card;
  s.fb_pending->TryPush(slot);  // slots == capacity: cannot fail
  return true;
}

void ServeFrontEnd::WarmupFeedback(const Workload& calibration) {
  if (!options_.feedback) return;
  for (const LabeledQuery& lq : calibration) {
    Shard& s = *shards_[ShardFor(lq.query)];
    FeedOne(&s, lq.query, s.guard->EstimateGuarded(lq.query), lq.cardinality);
  }
}

DriftStage ServeFrontEnd::ShardStage(int shard) const {
  return static_cast<DriftStage>(
      shards_[static_cast<size_t>(shard)]->stage_atomic.load(
          std::memory_order_acquire));
}

uint64_t ServeFrontEnd::FeedbackDropped() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->fb_dropped.load(std::memory_order_relaxed);
  }
  return total;
}

void ServeFrontEnd::ApplyStageTransition(Shard* shard, DriftStage from,
                                         DriftStage to) {
  const SteadyClock::time_point now = SteadyClock::now();
  metrics_.drift_time_in_stage_us.Record(
      MicrosBetween(shard->stage_since, now));
  shard->stage_since = now;
  shard->stage_atomic.store(static_cast<int>(to), std::memory_order_release);
  if (static_cast<int>(to) > static_cast<int>(from)) {
    metrics_.drift_up.Increment();
    if (from == DriftStage::kHealthy) {
      // Entering the ladder: stale pre-drift calibration scores dilute
      // the quantile and stale corrections point the wrong way — keep
      // only the freshest quarter of the window and relearn biases.
      shard->recal->ResetWindowTo(kRecalWindow / 4);
      shard->corrector->Reset();
      metrics_.drift_recalibrations.Increment();
    }
  } else {
    metrics_.drift_down.Increment();
  }
  obs::EventLog& elog = obs::EventLog::Instance();
  if (elog.enabled()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("type").String("drift");
    w.Key("shard").Int(shard->index);
    w.Key("from").String(DriftStageToString(from));
    w.Key("to").String(DriftStageToString(to));
    w.Key("coverage").Number(shard->recal->rolling_coverage());
    w.Key("observed").Int(static_cast<int64_t>(shard->recal->observed()));
    w.EndObject();
    elog.AppendRecord(w.TakeString());
  }
}

void ServeFrontEnd::FeedOne(Shard* shard, const Query& query,
                            const GuardedEstimate& estimate, double truth) {
  double served = estimate.value;
  if (estimate.source == 0) {
    // AQO-style residual learning applies only to the primary: fallback
    // tiers have their own (unlearned) biases, and mixing them into one
    // subspace entry would poison the correction.
    const uint64_t fss = ResidualCorrector::SubspaceHash(query);
    served = shard->corrector->Correct(fss, estimate.value);
    shard->corrector->Observe(fss, estimate.value, truth);
  }
  // The recalibrator scores what we would have served (post-correction),
  // so its quantile calibrates the intervals actually produced.
  shard->recal->Observe(served, truth);
  const DriftStage before = shard->detector->stage();
  const DriftStage after = shard->detector->Update(
      shard->recal->rolling_coverage(), shard->recal->rolling_observations());
  if (after != before) ApplyStageTransition(shard, before, after);
}

void ServeFrontEnd::ApplyFeedback(Shard* shard) {
  if (!options_.feedback) return;
  FeedbackSlot* slot = nullptr;
  if (!shard->fb_pending->TryPopSingleConsumer(&slot)) return;
  const SteadyClock::time_point t0 = SteadyClock::now();
  const size_t cap = options_.feedback_capacity;
  size_t k = 0;
  do {
    // Estimate as the serving path does (the recalibrator must score the
    // estimates clients are getting), one observation at a time so the
    // adaptive trajectory — corrector, recalibrator, detector — is a
    // pure function of the per-shard feedback sequence, not of how
    // micro-batch timing happened to group the applications
    // (EstimateBatchGuarded is bit-identical at any partition, so n=1
    // loses nothing).
    GuardedEstimate ge;
    shard->guard->EstimateBatchGuarded(&slot->query, 1, &ge,
                                       /*order_key_base=*/0,
                                       &shard->fb_scratch);
    FeedOne(shard, slot->query, ge, slot->truth);
    shard->fb_free->TryPush(slot);
    ++k;
  } while (k < cap && shard->fb_pending->TryPopSingleConsumer(&slot));
  metrics_.feedback_applied.Increment(k);
  metrics_.feedback_apply_us.Record(MicrosBetween(t0, SteadyClock::now()));
}

void ServeFrontEnd::WorkerLoop(Shard* shard) {
  obs::SetTraceThreadLabel("serve-worker-" + std::to_string(shard->index));
  // Serves one popped request. The whole batch cycle — assembly, guarded
  // batched inference, interval inversion, publication — is
  // alloc-counted; after warmup the delta must be zero (bench_serving
  // gates it).
  const auto process_popped = [this, shard](Request* first) {
    // One relaxed load when the profiler is off; arms this thread's
    // sampling timer at its first batch after the profiler starts.
    obs::prof::RegisterCurrentThread();
    const uint64_t allocs_before = obs::prof::ThreadAllocCount();
    ProcessFrom(shard, first);
    shard->hot_allocs.store(
        shard->hot_allocs.load(std::memory_order_relaxed) +
            (obs::prof::ThreadAllocCount() - allocs_before),
        std::memory_order_relaxed);
  };
  for (;;) {
    Request* first = nullptr;
    if (shard->queue.TryPopSingleConsumer(&first)) {
      process_popped(first);
      continue;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Recheck once: a Submit racing Stop() may have pushed between the
      // failed pop and the flag read. Anything later is caught by the
      // post-join drain in Stop().
      if (!shard->queue.TryPopSingleConsumer(&first)) break;
      process_popped(first);
      continue;
    }
    std::unique_lock<std::mutex> lock(shard->wake_mu);
    shard->idle.store(true, std::memory_order_relaxed);
    // The timeout is a belt-and-braces recheck: the idle-flag handshake
    // makes missed wakeups unlikely, and a stray one costs 500 µs, not a
    // hang.
    shard->wake_cv.wait_for(lock, std::chrono::microseconds(500), [&] {
      return shard->depth.load(std::memory_order_relaxed) > 0 ||
             stopping_.load(std::memory_order_acquire);
    });
    shard->idle.store(false, std::memory_order_relaxed);
  }
}

void ServeFrontEnd::ProcessFrom(Shard* shard, Request* first) {
  // Micro-batch boundary: fold queued executed-query truth into the
  // recalibrator/corrector/detector before computing this batch, so the
  // adaptation point is a deterministic function of the request and
  // feedback sequences.
  ApplyFeedback(shard);
  shard->batch.clear();
  shard->batch.push_back(first);
  const size_t max_batch = static_cast<size_t>(options_.max_batch);
  if (max_batch > 1 && shard->batch.size() < max_batch) {
    // Dynamic micro-batching: drain whatever is queued, then wait up to
    // the flush timeout for stragglers. T=0 degenerates to "one drain
    // pass, no waiting".
    const bool may_wait = options_.flush_timeout_us > 0;
    const SteadyClock::time_point deadline =
        may_wait ? SteadyClock::now() +
                       std::chrono::microseconds(options_.flush_timeout_us)
                 : SteadyClock::time_point{};
    int spins = 0;
    for (;;) {
      Request* next = nullptr;
      if (shard->queue.TryPopSingleConsumer(&next)) {
        shard->batch.push_back(next);
        if (shard->batch.size() >= max_batch) break;
        continue;
      }
      if (!may_wait || stopping_.load(std::memory_order_relaxed) ||
          SteadyClock::now() >= deadline) {
        break;
      }
      CpuRelax();
      // Yield periodically so producers on oversubscribed hosts can
      // actually deliver the stragglers this wait is for.
      if ((++spins & 0x3F) == 0) std::this_thread::yield();
    }
  }

  const SteadyClock::time_point dispatched = SteadyClock::now();
  const size_t m = shard->batch.size();
  // One subtraction per batch, before the worker can next wait on depth.
  shard->depth.fetch_sub(static_cast<int>(m), std::memory_order_relaxed);
  // queries/outs were sized to max_batch at construction; element-wise
  // assignment reuses each slot's predicate capacity batch to batch.
  for (size_t i = 0; i < m; ++i) {
    shard->queries[i] = shard->batch[i]->query;
  }
  shard->guard->EstimateBatchGuarded(shard->queries.data(), m,
                                     shard->outs.data(),
                                     /*order_key_base=*/0, &shard->scratch);
  if (options_.feedback) {
    // Learned point-estimate correction (primary-sourced answers only).
    for (size_t i = 0; i < m; ++i) {
      if (shard->outs[i].source != 0) continue;
      shard->outs[i].value = shard->corrector->Correct(
          ResidualCorrector::SubspaceHash(shard->queries[i]),
          shard->outs[i].value);
    }
  }
  // Counted before publishing: a caller that has seen every response of
  // a quiesced front-end may then read or reset the stats.
  shard->batch_size_counts[m] += 1;
  const SteadyClock::time_point completed = SteadyClock::now();
  for (size_t i = 0; i < m; ++i) {
    Publish(shard->batch[i], shard->outs[i], *shard,
            static_cast<uint32_t>(m), dispatched, completed);
  }
  metrics_.batches.Increment();
  metrics_.batch_size.Record(static_cast<double>(m));
}

void ServeFrontEnd::Publish(Request* request, const GuardedEstimate& estimate,
                            const Shard& shard, uint32_t batch_size,
                            SteadyClock::time_point dispatched,
                            SteadyClock::time_point completed) const {
  Response& resp = request->response;
  resp.estimate = estimate.value;
  // With feedback on, the shard's sliding-window recalibrator sets delta
  // once its quantile is finite (the frozen SplitConformal's delta until
  // then) and the ladder's kInflate stage widens every interval by
  // kDriftInflation. Degraded answers widen by kDegradedInflation.
  double delta = conformal_->delta();
  double inflation = estimate.degraded ? kDegradedInflation : 1.0;
  if (options_.feedback) {
    const double recal_delta = shard.recal->delta();
    if (!std::isinf(recal_delta)) delta = recal_delta;
    if (shard.detector->stage() == DriftStage::kInflate) {
      inflation *= kDriftInflation;
    }
  }
  const Interval iv = ClipToCardinality(
      scoring_->Invert(estimate.value, delta * inflation), num_rows_);
  resp.lo = iv.lo;
  resp.hi = iv.hi;
  resp.degraded = estimate.degraded;
  resp.shed = false;
  resp.source = estimate.source;
  resp.shard = shard.index;
  resp.batch_size = batch_size;
  resp.queue_us = MicrosBetween(request->submitted_at, dispatched);
  resp.total_us = MicrosBetween(request->submitted_at, completed);
  if (estimate.degraded) metrics_.degraded.Increment();
  metrics_.queue_us.Record(resp.queue_us);
  metrics_.total_us.Record(resp.total_us);
  request->state.store(Request::kDone, std::memory_order_release);
}

void ServeFrontEnd::PublishShed(Request* request, int shard) const {
  Response& resp = request->response;
  resp = Response{};
  resp.shed = true;
  resp.degraded = true;
  resp.estimate = 0.0;
  resp.lo = 0.0;
  resp.hi = num_rows_;  // trivially valid: shed answers never miscovers
  resp.shard = shard;
  request->state.store(Request::kDone, std::memory_order_release);
  // Shed bursts must be diagnosable from the event log alone: record
  // each one (off the alloc-gated worker path — shedding happens on the
  // submitting thread).
  obs::EventLog& elog = obs::EventLog::Instance();
  if (elog.enabled()) {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("type").String("serve");
    w.Key("shed").Bool(true);
    w.Key("shard").Int(shard);
    w.Key("qkey").Int(QueryContentKey(request->query));
    w.EndObject();
    elog.AppendRecord(w.TakeString());
  }
}

void ServeFrontEnd::Stop() {
  stopping_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (joined_) return;
  joined_ = true;
  // Order after every Submit that passed the stopping check: once the
  // in-flight count drains, all accepted requests are in their queues.
  while (inflight_submits_.load(std::memory_order_acquire) > 0) {
    std::this_thread::yield();
  }
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> wake(shard->wake_mu);
    shard->wake_cv.notify_all();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Serve any stragglers that slipped in behind a worker's exit check
  // on this thread, through the worker's own batch cycle (residual
  // correction, batch size) — Stop() returns only after every accepted
  // request has a published response.
  for (auto& shard : shards_) {
    Request* first = nullptr;
    while (shard->queue.TryPopSingleConsumer(&first)) {
      ProcessFrom(shard.get(), first);
      metrics_.drained_on_stop.Increment(shard->batch.size());
    }
    // Feedback accepted before the stop flag is applied, not lost:
    // Observe() rejects once stopping_, and the ring holds at most one
    // capacity's worth, so one drain pass empties it.
    ApplyFeedback(shard.get());
  }
}

uint64_t ServeFrontEnd::HotPathAllocs() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->hot_allocs.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<uint64_t> ServeFrontEnd::BatchSizeCounts() const {
  std::vector<uint64_t> counts(static_cast<size_t>(options_.max_batch) + 1, 0);
  for (const auto& shard : shards_) {
    for (size_t b = 0; b < shard->batch_size_counts.size(); ++b) {
      counts[b] += shard->batch_size_counts[b];
    }
  }
  return counts;
}

void ServeFrontEnd::ResetStats() {
  for (auto& shard : shards_) {
    shard->hot_allocs.store(0, std::memory_order_relaxed);
    std::fill(shard->batch_size_counts.begin(),
              shard->batch_size_counts.end(), 0);
  }
}

}  // namespace serve
}  // namespace confcard
