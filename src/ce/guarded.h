// Guarded estimation: a decorator that makes any CardinalityEstimator
// safe to serve. The paper's models fail silently — NaN logits, exp()
// blow-ups, pathological latencies — and a production serving path
// (postgrespro/aqo is the model here) survives because it always has a
// fallback to a native estimator. GuardedEstimator supplies exactly
// that:
//
//   * queries are validated up front (column range, lo <= hi, no NaN
//     bounds); invalid queries are quarantined instead of aborting,
//   * primary outputs are sanitized — NaN/Inf/negative estimates never
//     escape,
//   * an optional per-query latency budget turns pathological slowness
//     into a failure,
//   * a failed primary is retried once (configurable), then falls back
//     through a chain of alternates ending in an always-available
//     histogram-AVI estimator built from the table,
//   * a circuit breaker trips to fallback-only after K consecutive
//     primary failures and recovers via a healthy probe after cooldown.
//     Only the primary's own outcomes move it: callers such as the
//     serving front-end read breaker_open() and never write to the
//     guard, so one guard can be shared safely.
//
// Every intervention bumps a ce.guard.* metric and, when the event log
// is armed, appends a guard record; healthy queries pay one validation
// pass and one finiteness check. With no faults injected and no budget
// configured, the guarded path is bit-identical to the raw estimator
// (determinism_test enforces this).
#ifndef CONFCARD_CE_GUARDED_H_
#define CONFCARD_CE_GUARDED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ce/estimator.h"
#include "ce/histogram.h"
#include "obs/metrics.h"

namespace confcard {

/// Guard policy knobs.
struct GuardOptions {
  /// Extra attempts on the primary after a failed one (0 = no retry).
  int max_retries = 1;
  /// Per-query wall-clock budget in microseconds for the primary; 0
  /// disables budget enforcement (and keeps the guarded batch path on
  /// the primary's batched call).
  double latency_budget_us = 0.0;
  /// Consecutive primary failures (counting each query once, after
  /// retries) that trip the circuit breaker; <= 0 disables the breaker.
  int breaker_threshold = 8;
  /// Queries served fallback-only while the breaker is open before a
  /// probe query is allowed through to the primary.
  int breaker_cooldown = 32;
};

/// Caller-owned reusable buffers for EstimateBatchGuarded's batched call.
/// A serving loop that keeps one scratch per worker pays zero heap
/// allocations per batch once the vectors have grown to the loop's
/// steady-state batch size (bench_serving gates this).
struct GuardBatchScratch {
  std::vector<size_t> valid;
  std::vector<double> values;
  std::vector<Query> compacted;
};

/// Outcome of one guarded estimate.
struct GuardedEstimate {
  /// Sanitized cardinality estimate (finite, >= 0).
  double value = 0.0;
  /// True when the primary did not produce this value (fallback chain,
  /// open breaker, or quarantined invalid query). Degraded answers get
  /// conservatively inflated prediction intervals downstream.
  bool degraded = false;
  /// 0: primary. 1..: index into the fallback chain (the final
  /// histogram fallback is the last index). -1: quarantined invalid
  /// query (no estimator ran).
  int source = 0;
};

/// Multiplier on the calibrated quantile delta for the interval of a
/// degraded answer, so fallback answers get conservatively wider bands.
/// Read by SingleTableHarness::RunScpGuarded and the serving front-end.
inline constexpr double kDegradedInflation = 4.0;

/// Decorator over a primary CardinalityEstimator. Neither the primary
/// nor added fallbacks are owned; the terminal histogram fallback is
/// built from the table and owned by the guard.
class GuardedEstimator : public CardinalityEstimator {
 public:
  GuardedEstimator(const CardinalityEstimator& primary, const Table& table,
                   GuardOptions options = {});

  /// Inserts a fallback tried (in insertion order) before the terminal
  /// histogram estimator. Not owned; must outlive the guard.
  void AddFallback(const CardinalityEstimator& fallback);

  std::string name() const override;
  /// EstimateBatchGuarded, values only.
  void EstimateBatch(const Query* queries, size_t n,
                     double* out) const override;

  /// Value plus degradation provenance for one query: a batch of one.
  GuardedEstimate EstimateGuarded(const Query& query) const {
    GuardedEstimate out;
    EstimateBatchGuarded(&query, 1, &out);
    return out;
  }
  /// Rich batch path. When no faults are armed, no budget is set, and
  /// the breaker is closed, one batched primary call over the valid
  /// queries is attempt 0; only the queries whose answer failed go on
  /// to retry and fallback, in query order. Otherwise every query takes
  /// the per-query ladder (GuardOne).
  ///
  /// `order_key_base`: event-log ordering key for guard records emitted
  /// by query 0 of this batch (query i uses base + i); see
  /// obs::EventLog::OrderKey. Callers that fan batches out across
  /// threads pass keys derived from a shared order window so the merged
  /// log is deterministic; 0 (the default) lets the log assign
  /// per-thread automatic keys.
  ///
  /// `scratch`: optional reusable buffers for the batched call; pass a
  /// per-worker GuardBatchScratch to make steady-state batches
  /// allocation-free. Null falls back to call-local vectors.
  void EstimateBatchGuarded(const Query* queries, size_t n,
                            GuardedEstimate* out, uint64_t order_key_base = 0,
                            GuardBatchScratch* scratch = nullptr) const;

  /// Circuit-breaker state, for tests, monitors and admission control.
  bool breaker_open() const;

  const GuardOptions& options() const { return options_; }

 private:
  /// True iff `v` may be served as a cardinality.
  static bool Sane(double v);

  /// The per-query guard (validate → breaker → timed attempt 0 →
  /// Settle), minus the queries-counter bump, for batches that need a
  /// decision per query: faults armed, a latency budget, or the breaker
  /// open. `order_key` keys any emitted guard record (0 = automatic).
  GuardedEstimate GuardOne(const Query& query, uint64_t order_key) const;
  /// The rest of the ladder once attempt 0 has answered `value` in
  /// `elapsed_us`: retries while the answer fails, then breaker
  /// bookkeeping, then the primary's answer or the fallback chain's.
  GuardedEstimate Settle(const Query& query, double value, double elapsed_us,
                         bool probe, uint64_t order_key) const;
  /// True iff a primary answer may be served: sane and, with a budget
  /// set, on time. Counts the failure's cause otherwise.
  bool Accept(double value, double elapsed_us) const;
  /// Walks the fallback chain; always produces a sane value.
  GuardedEstimate ServeFallback(const Query& query) const;
  /// Breaker bookkeeping after a query's primary outcome.
  void RecordPrimaryOutcome(bool ok, bool was_probe) const;
  /// Decides between primary and fallback for one query under the
  /// breaker; sets *probe when this query is the post-cooldown probe.
  bool AllowPrimary(bool* probe) const;

  void EmitGuardRecord(const Query& query, const GuardedEstimate& outcome,
                       const char* reason, uint64_t order_key) const;

  const CardinalityEstimator* primary_;
  std::vector<const CardinalityEstimator*> fallbacks_;
  std::unique_ptr<HistogramEstimator> histogram_;
  GuardOptions options_;
  size_t num_columns_;

  // Breaker state. Guarded queries run concurrently (the harness fans
  // batches out; the serving front-end hammers one guard from every
  // shard producer), so transitions are lock-free atomics: AllowPrimary
  // claims cooldown ticks and the single in-flight probe slot via CAS,
  // and breaker_open() is a relaxed-load admission check cheap enough
  // for a serving submit path. With a healthy primary the state never
  // changes, so faults-off parallel runs stay deterministic.
  // cooldown_remaining_ uses kProbeInFlight (-1) to mark that a probe
  // query has been admitted and its outcome is still pending; other
  // callers stay on the fallback until the probe resolves.
  static constexpr int kProbeInFlight = -1;
  mutable std::atomic<int> consecutive_failures_{0};
  mutable std::atomic<bool> open_{false};
  mutable std::atomic<int> cooldown_remaining_{0};

  struct GuardMetrics {
    obs::Counter& queries;
    obs::Counter& primary_ok;
    obs::Counter& sanitized_nan;
    obs::Counter& sanitized_negative;
    obs::Counter& budget_exceeded;
    obs::Counter& retries;
    obs::Counter& retry_success;
    obs::Counter& fallback_served;
    obs::Counter& invalid_query;
    obs::Counter& breaker_trips;
    obs::Counter& breaker_probes;
    obs::Counter& breaker_recoveries;
    obs::Gauge& breaker_open;
    obs::Histogram& latency_us;
    GuardMetrics();
  };
  static GuardMetrics& SharedMetrics();
  GuardMetrics& metrics_;
};

}  // namespace confcard

#endif  // CONFCARD_CE_GUARDED_H_
