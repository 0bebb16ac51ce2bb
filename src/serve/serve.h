// High-throughput serving front-end over the guarded estimation stack:
// multi-producer lock-free request queues feeding per-shard dynamic
// micro-batchers (collect up to B queries or wait at most T µs, then one
// EstimateBatch), shared-nothing model replicas (one GuardedEstimator
// per shard, routed by query content hash), admission control tied into
// the guard's circuit breaker, and a response path that carries the
// conformal prediction interval plus degraded/shed provenance per query.
//
// Contracts the tests and bench_serving gate:
//   * Batching is bit-identical to guarded batches of one when no
//     faults are armed (any partition of a workload equals batches of
//     one, so whatever partition the timing produces serves the same
//     bits), at any shard count when the replicas are trained
//     identically.
//   * The steady-state hot path — submit, queue transfer, batch
//     assembly, guarded batched inference, interval inversion, response
//     publication — performs zero heap allocations once buffers have
//     warmed up (preallocated queue cells, capacity-reusing Query
//     copies, GuardBatchScratch, arena-recycled tensors).
//   * Load is shed, never queued unboundedly: a full shard queue or an
//     open breaker above the admission watermark fails fast with a
//     trivially valid [0, N] interval flagged shed+degraded.
//   * Stop() drains: every accepted request gets a response before the
//     workers join.
//
// With Options::feedback enabled the front-end closes the drift loop
// (docs/ROBUSTNESS.md "Drift & self-healing"): Observe(query, truth)
// queues executed-query ground truth on the owning shard's lock-free
// feedback ring; each worker drains its ring at micro-batch boundaries
// into a sliding-window OnlineConformal recalibrator (intervals adapt),
// an AQO-style feature-subspace residual corrector (point estimates
// adapt), and a staged drift detector (recalibrate → inflate →
// fallback tier → forced breaker) whose transitions are recorded as
// "type":"drift" events and serve.drift.* metrics.
#ifndef CONFCARD_SERVE_SERVE_H_
#define CONFCARD_SERVE_SERVE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ce/guarded.h"
#include "ce/residual.h"
#include "conformal/online.h"
#include "conformal/split.h"
#include "query/predicate.h"
#include "serve/drift_detector.h"
#include "serve/mpmc_queue.h"

namespace confcard {
namespace serve {

/// Admission outcome of one Submit call.
enum class Admit {
  kAccepted,        // enqueued; the response arrives asynchronously
  kShedQueueFull,   // shard queue full: responded immediately as shed
  kShedBreaker,     // breaker open + queue above watermark: shed
  kRejectedStopped  // front-end stopped: responded as shed
};

/// True for any Admit value that sheds instead of enqueueing.
inline bool IsShed(Admit a) { return a != Admit::kAccepted; }

/// What the serving path returns for one query.
struct Response {
  /// Sanitized cardinality estimate (0 for shed requests).
  double estimate = 0.0;
  /// Conformal prediction interval, clipped to [0, N]. Degraded answers
  /// are inverted at delta * degraded_inflation; shed answers get the
  /// trivially valid [0, N].
  double lo = 0.0;
  double hi = 0.0;
  /// True when the primary did not produce the estimate (guard fallback
  /// chain, quarantine, or shed).
  bool degraded = false;
  /// True when admission control rejected the request without running
  /// any estimator.
  bool shed = false;
  /// GuardedEstimate provenance (0 primary, >0 fallback index, -1
  /// quarantined invalid query); 0 for shed requests.
  int source = 0;
  /// Shard that served (or shed) the request.
  int shard = -1;
  /// Size of the micro-batch this response was computed in (0 if shed).
  uint32_t batch_size = 0;
  /// Admission -> batch dispatch, µs (0 if shed).
  double queue_us = 0.0;
  /// Admission -> response publication, µs (~0 if shed).
  double total_us = 0.0;
};

/// One in-flight request. Caller-owned slot: write `query`, Submit, and
/// read `response` once done() turns true. Slots are reusable via
/// Reset() and cache-line aligned so a polling producer and a
/// publishing worker never share a line across adjacent slots.
struct alignas(64) Request {
  Query query;
  Response response;

  /// True once `response` is fully published (acquire pairs with the
  /// worker's release store).
  bool done() const {
    return state.load(std::memory_order_acquire) == kDone;
  }
  /// Spin-waits until done (test/bench convenience; yields while
  /// waiting so oversubscribed hosts make progress).
  void Wait() const;
  /// Makes the slot submittable again. Only call when no Submit of this
  /// slot is outstanding.
  void Reset() { state.store(kFree, std::memory_order_relaxed); }

  static constexpr uint32_t kFree = 0;
  static constexpr uint32_t kPending = 1;
  static constexpr uint32_t kDone = 2;
  std::atomic<uint32_t> state{kFree};
  std::chrono::steady_clock::time_point submitted_at{};
};

/// Serving front-end over per-shard guarded replicas.
class ServeFrontEnd {
 public:
  struct Options {
    /// Micro-batch budget B: a batch is dispatched as soon as B requests
    /// are assembled. 1 dispatches every request on its own.
    int max_batch = 32;
    /// Flush timeout T µs: a non-empty batch waits at most this long for
    /// more arrivals before dispatching. 0 flushes immediately (every
    /// batch is whatever one queue drain pass yields).
    int flush_timeout_us = 200;
    /// Per-shard bounded queue capacity; a full queue sheds.
    size_t queue_capacity = 1024;
    /// Breaker admission watermark: while a shard's breaker is open,
    /// requests are shed once its queue holds >= watermark * capacity
    /// entries (fail fast instead of queueing behind a sick primary).
    double breaker_shed_watermark = 0.5;
    /// Interval-width multiplier for degraded answers (matches
    /// SingleTableHarness::Options::degraded_inflation).
    double degraded_inflation = 4.0;

    // ---- drift-adaptation loop (off by default; enabling it switches
    // interval production from the frozen SplitConformal to a per-shard
    // sliding-window recalibrator fed by Observe()) ----

    /// Master switch for the online feedback loop.
    bool feedback = false;
    /// Per-shard feedback ring capacity; a full ring drops observations
    /// (counted in feedback.dropped) instead of blocking the producer.
    size_t feedback_capacity = 1024;
    /// Sliding calibration window of each shard's OnlineConformal
    /// recalibrator.
    size_t recal_window = 512;
    /// Rolling-monitor horizon feeding the drift detector.
    size_t monitor_window = 256;
    /// Extra interval-width multiplier while the ladder is at kInflate
    /// or beyond (composes with degraded_inflation).
    double drift_inflation = 2.0;
    /// Ladder thresholds. nominal_coverage is overwritten with
    /// 1 - alpha from the conformal predictor at construction.
    DriftDetectorOptions detector;
    /// Residual-corrector knobs (AQO-style executed-query feedback).
    ResidualCorrector::Options corrector;
  };

  /// One guard per shard (none owned; all must outlive the front-end).
  /// Replicas are expected to be behaviorally identical (same
  /// architecture, seed, and training data) — routing is a content hash,
  /// so distinguishable replicas would make results depend on the shard
  /// count. `conformal` must be calibrated; its interval logic and
  /// `num_rows` clipping are shared read-only across shards.
  ServeFrontEnd(std::vector<const GuardedEstimator*> shard_guards,
                const SplitConformal& conformal, double num_rows,
                Options options);
  /// Default-options overload (a default argument cannot reference the
  /// nested Options' member initializers from inside this class).
  ServeFrontEnd(std::vector<const GuardedEstimator*> shard_guards,
                const SplitConformal& conformal, double num_rows)
      : ServeFrontEnd(std::move(shard_guards), conformal, num_rows,
                      Options()) {}
  /// Stops (draining) if the caller has not.
  ~ServeFrontEnd();

  ServeFrontEnd(const ServeFrontEnd&) = delete;
  ServeFrontEnd& operator=(const ServeFrontEnd&) = delete;

  /// Routes and enqueues `request` (whose `query` must be populated).
  /// On any shed outcome the response is published before returning.
  Admit Submit(Request* request);

  /// Executed-query ground truth: queues (query, true_card) on the
  /// owning shard's lock-free feedback ring, to be applied at that
  /// shard's next micro-batch boundary (recalibrator + residual
  /// corrector + drift detector). Returns false when feedback is
  /// disabled, the front-end has stopped, or the ring is full (the
  /// observation is dropped and feedback.dropped counted). Thread-safe;
  /// allocation-free once slot capacity has warmed.
  bool Observe(const Query& query, double true_card);

  /// Synchronously seeds every shard's recalibrator and corrector from
  /// a labeled calibration workload (each query routed to its owning
  /// shard, estimated by that shard's guard). Call while quiesced — no
  /// requests in flight. No-op unless feedback is enabled.
  void WarmupFeedback(const Workload& calibration);

  /// Current ladder stage of `shard` (kHealthy when feedback is off).
  DriftStage ShardStage(int shard) const;
  /// Observations dropped on full feedback rings, summed over shards.
  uint64_t FeedbackDropped() const;

  /// Rejects new requests, serves everything already accepted, joins
  /// the workers. Idempotent.
  void Stop();
  bool stopped() const {
    return stopping_.load(std::memory_order_acquire);
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Deterministic shard routing: QueryContentKey(query) % num_shards.
  int ShardFor(const Query& query) const;
  const Options& options() const { return options_; }

  /// Heap allocations performed inside worker batch cycles (pop ->
  /// publish) since the last ResetStats. Read when quiesced; the
  /// steady-state gate in bench_serving expects a delta of zero.
  uint64_t HotPathAllocs() const;
  /// counts[b] = micro-batches dispatched with exactly b requests,
  /// summed over shards (index 0 unused). Read when quiesced.
  std::vector<uint64_t> BatchSizeCounts() const;
  /// Zeroes the per-shard batch/alloc stats. Only call when no requests
  /// are in flight.
  void ResetStats();

 private:
  struct Shard;

  void WorkerLoop(Shard* shard);
  /// Assembles one micro-batch starting from `first`, runs the guarded
  /// batched estimate, and publishes every response. When feedback is on
  /// the cycle starts by draining the shard's feedback ring into the
  /// recalibrator/corrector/detector (micro-batch-boundary application
  /// keeps the ordering deterministic for a fixed request sequence).
  void ProcessFrom(Shard* shard, Request* first);
  /// Drains and applies queued feedback for `shard` (worker thread
  /// only).
  void ApplyFeedback(Shard* shard);
  /// Applies one executed-query observation to `shard`'s adaptive state
  /// and steps the drift detector.
  void FeedOne(Shard* shard, const Query& query,
               const GuardedEstimate& estimate, double truth);
  /// Runs the entry/exit actions of a ladder stage change and records
  /// the serve.drift.* transition metrics + event.
  void ApplyStageTransition(Shard* shard, DriftStage from, DriftStage to);
  void Publish(Request* request, const GuardedEstimate& estimate,
               const Shard& shard, uint32_t batch_size,
               std::chrono::steady_clock::time_point dispatched,
               std::chrono::steady_clock::time_point completed) const;
  void PublishShed(Request* request, int shard) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  const SplitConformal* conformal_;
  const ScoringFunction* scoring_;
  double inflated_delta_ = 0.0;
  double num_rows_ = 0.0;
  Options options_;
  size_t breaker_shed_depth_ = 0;
  std::atomic<bool> stopping_{false};
  /// Submits past the stopping check but not yet enqueued; Stop() waits
  /// for this to drain before joining, so no accepted request is lost.
  std::atomic<int> inflight_submits_{0};
  std::mutex stop_mu_;  // serializes Stop callers
  bool joined_ = false;

  struct ServeMetrics;
  static ServeMetrics& SharedMetrics();
  ServeMetrics& metrics_;
};

}  // namespace serve
}  // namespace confcard

#endif  // CONFCARD_SERVE_SERVE_H_
