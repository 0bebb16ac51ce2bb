#include "ce/guarded.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "obs/event_log.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "query/validate.h"

namespace confcard {

GuardedEstimator::GuardMetrics::GuardMetrics()
    : queries(obs::Metrics().GetCounter("ce.guard.queries")),
      primary_ok(obs::Metrics().GetCounter("ce.guard.primary_ok")),
      sanitized_nan(obs::Metrics().GetCounter("ce.guard.sanitized_nan")),
      sanitized_negative(
          obs::Metrics().GetCounter("ce.guard.sanitized_negative")),
      budget_exceeded(obs::Metrics().GetCounter("ce.guard.budget_exceeded")),
      retries(obs::Metrics().GetCounter("ce.guard.retries")),
      retry_success(obs::Metrics().GetCounter("ce.guard.retry_success")),
      fallback_served(obs::Metrics().GetCounter("ce.guard.fallback_served")),
      invalid_query(obs::Metrics().GetCounter("ce.guard.invalid_query")),
      breaker_trips(obs::Metrics().GetCounter("ce.guard.breaker_trips")),
      breaker_probes(obs::Metrics().GetCounter("ce.guard.breaker_probes")),
      breaker_recoveries(
          obs::Metrics().GetCounter("ce.guard.breaker_recoveries")),
      breaker_open(obs::Metrics().GetGauge("ce.guard.breaker_open")),
      latency_us(obs::Metrics().GetHistogram("ce.guard.latency_us")) {}

GuardedEstimator::GuardMetrics& GuardedEstimator::SharedMetrics() {
  static GuardMetrics* metrics = new GuardMetrics();
  return *metrics;
}

GuardedEstimator::GuardedEstimator(const CardinalityEstimator& primary,
                                   const Table& table, GuardOptions options)
    : primary_(&primary),
      histogram_(std::make_unique<HistogramEstimator>(table)),
      options_(options),
      num_columns_(table.num_columns()),
      metrics_(SharedMetrics()) {}

void GuardedEstimator::AddFallback(const CardinalityEstimator& fallback) {
  fallbacks_.push_back(&fallback);
}

std::string GuardedEstimator::name() const {
  return "guarded(" + primary_->name() + ")";
}

bool GuardedEstimator::Sane(double v) {
  return std::isfinite(v) && v >= 0.0;
}

bool GuardedEstimator::breaker_open() const {
  return open_.load(std::memory_order_acquire);
}

bool GuardedEstimator::AllowPrimary(bool* probe) const {
  *probe = false;
  if (options_.breaker_threshold <= 0) return true;
  if (!open_.load(std::memory_order_acquire)) return true;
  // Open: either burn one cooldown tick, claim the probe slot, or (when
  // another thread holds the probe slot) stay on the fallback. Every
  // transition is a CAS so concurrent callers each take exactly one of
  // those actions — the cooldown never goes negative and at most one
  // probe is in flight.
  int c = cooldown_remaining_.load(std::memory_order_relaxed);
  for (;;) {
    if (c > 0) {
      if (cooldown_remaining_.compare_exchange_weak(
              c, c - 1, std::memory_order_acq_rel)) {
        return false;
      }
      continue;  // c reloaded by the failed CAS
    }
    if (c == kProbeInFlight) return false;
    // c == 0: cooldown drained; claim the probe slot.
    if (cooldown_remaining_.compare_exchange_weak(
            c, kProbeInFlight, std::memory_order_acq_rel)) {
      *probe = true;
      return true;
    }
  }
}

void GuardedEstimator::RecordPrimaryOutcome(bool ok, bool was_probe) const {
  if (options_.breaker_threshold <= 0) return;
  if (ok) {
    // Healthy steady state stays read-only: shards may share one guard,
    // and a store per query would bounce this line between their cores.
    if (consecutive_failures_.load(std::memory_order_relaxed) != 0) {
      consecutive_failures_.store(0, std::memory_order_relaxed);
    }
    if (open_.load(std::memory_order_acquire) &&
        open_.exchange(false, std::memory_order_acq_rel)) {
      // A healthy probe closes the breaker (exactly one thread observes
      // the open->closed edge and owns the metrics update).
      cooldown_remaining_.store(0, std::memory_order_release);
      metrics_.breaker_recoveries.Increment();
      metrics_.breaker_open.Set(0.0);
    }
    return;
  }
  if (open_.load(std::memory_order_acquire)) {
    // A failed probe restarts the cooldown; the breaker stays open.
    cooldown_remaining_.store(options_.breaker_cooldown,
                              std::memory_order_release);
    return;
  }
  const int failures =
      consecutive_failures_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures >= options_.breaker_threshold) {
    bool expected = false;
    if (open_.compare_exchange_strong(expected, true,
                                      std::memory_order_acq_rel)) {
      cooldown_remaining_.store(options_.breaker_cooldown,
                                std::memory_order_release);
      metrics_.breaker_trips.Increment();
      metrics_.breaker_open.Set(1.0);
    }
  }
  (void)was_probe;
}

bool GuardedEstimator::Accept(double value, double elapsed_us) const {
  if (!Sane(value)) {
    (std::isnan(value) || std::isinf(value) ? metrics_.sanitized_nan
                                            : metrics_.sanitized_negative)
        .Increment();
    return false;
  }
  if (options_.latency_budget_us > 0.0 &&
      elapsed_us > options_.latency_budget_us) {
    metrics_.budget_exceeded.Increment();
    return false;
  }
  return true;
}

GuardedEstimate GuardedEstimator::Settle(const Query& query, double value,
                                         double elapsed_us, bool probe,
                                         uint64_t order_key) const {
  const int attempts = 1 + std::max(options_.max_retries, 0);
  int attempt = 0;
  while (!Accept(value, elapsed_us)) {
    if (++attempt == attempts) {
      RecordPrimaryOutcome(false, probe);
      GuardedEstimate out = ServeFallback(query);
      EmitGuardRecord(query, out, probe ? "probe_failed" : "primary_failed",
                      order_key);
      return out;
    }
    metrics_.retries.Increment();
    // Attempt 0 ran with the default salt, so the primary saw exactly
    // the injection decisions the raw model would; retries re-roll them.
    fault::ScopedRetrySalt salt(static_cast<uint64_t>(attempt));
    Stopwatch watch;
    value = primary_->EstimateCardinality(query);
    elapsed_us = watch.ElapsedMicros();
  }
  if (attempt > 0) metrics_.retry_success.Increment();
  RecordPrimaryOutcome(true, probe);
  metrics_.primary_ok.Increment();
  return {value, false, 0};
}

GuardedEstimate GuardedEstimator::ServeFallback(const Query& query) const {
  metrics_.fallback_served.Increment();
  for (size_t i = 0; i < fallbacks_.size(); ++i) {
    const double v = fallbacks_[i]->EstimateCardinality(query);
    if (Sane(v)) return {v, true, static_cast<int>(i) + 1};
  }
  double v = histogram_->EstimateCardinality(query);
  if (!Sane(v)) v = 0.0;  // the AVI estimator is always sane; belt & braces
  return {v, true, static_cast<int>(fallbacks_.size()) + 1};
}

void GuardedEstimator::EmitGuardRecord(const Query& query,
                                       const GuardedEstimate& outcome,
                                       const char* reason,
                                       uint64_t order_key) const {
  obs::EventLog& elog = obs::EventLog::Instance();
  if (!elog.enabled()) return;
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("type").String("guard");
  w.Key("model").String(primary_->name());
  w.Key("reason").String(reason);
  w.Key("qkey").Int(QueryContentKey(query));
  w.Key("value").Number(outcome.value);
  w.Key("degraded").Bool(outcome.degraded);
  w.Key("source").Number(static_cast<double>(outcome.source));
  w.EndObject();
  if (order_key != 0) {
    elog.AppendRecordOrdered(w.TakeString(), order_key);
  } else {
    elog.AppendRecord(w.TakeString());
  }
}

GuardedEstimate GuardedEstimator::GuardOne(const Query& query,
                                           uint64_t order_key) const {
  // Detail-only span over the whole ladder (validation, the
  // latency-budgeted primary attempt, retry, fallback): on trace
  // timelines budget-exceeded queries show up as long guard.estimate
  // spans, and the profiler attributes their CPU to this frame.
  std::optional<obs::TraceSpan> guard_span;
  if (obs::DetailSpansEnabled()) guard_span.emplace("guard.estimate");
  if (!ValidateQuery(query, num_columns_).ok()) {
    metrics_.invalid_query.Increment();
    // A malformed query has no meaningful cardinality; quarantine it
    // with the empty-result answer rather than crashing an estimator.
    GuardedEstimate out{0.0, true, -1};
    EmitGuardRecord(query, out, "invalid_query", order_key);
    return out;
  }
  Stopwatch watch;
  bool probe = false;
  GuardedEstimate out;
  if (!AllowPrimary(&probe)) {
    out = ServeFallback(query);
    EmitGuardRecord(query, out, "breaker_open", order_key);
  } else {
    if (probe) metrics_.breaker_probes.Increment();
    const double value = primary_->EstimateCardinality(query);
    out = Settle(query, value, watch.ElapsedMicros(), probe, order_key);
  }
  metrics_.latency_us.Record(watch.ElapsedMicros());
  return out;
}

void GuardedEstimator::EstimateBatchGuarded(const Query* queries, size_t n,
                                            GuardedEstimate* out,
                                            uint64_t order_key_base,
                                            GuardBatchScratch* scratch) const {
  if (n == 0) return;
  // Key for query i's guard record: base + i composes with
  // EventLog::OrderKey because batch sizes never approach 2^32. Base 0
  // keeps the automatic per-thread keying.
  const auto key_at = [order_key_base](size_t i) {
    return order_key_base == 0 ? 0 : order_key_base + i;
  };
  metrics_.queries.Increment(n);
  // One batched attempt 0 needs nothing to decide per query before the
  // primary runs: no injected faults, no per-query budget, breaker
  // closed.
  const bool batched = !fault::Enabled() &&
                       options_.latency_budget_us <= 0.0 && !breaker_open();
  if (!batched) {
    for (size_t i = 0; i < n; ++i) out[i] = GuardOne(queries[i], key_at(i));
    return;
  }

  // A caller-provided scratch keeps capacity across batches, so a
  // steady-state serving loop pays no heap traffic here.
  GuardBatchScratch local;
  GuardBatchScratch& s = scratch != nullptr ? *scratch : local;

  // Validate first: the primary may index columns without checks.
  std::vector<size_t>& valid = s.valid;
  valid.clear();
  valid.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (ValidateQuery(queries[i], num_columns_).ok()) {
      valid.push_back(i);
    } else {
      metrics_.invalid_query.Increment();
      out[i] = {0.0, true, -1};
      EmitGuardRecord(queries[i], out[i], "invalid_query", key_at(i));
    }
  }
  if (valid.empty()) return;

  std::vector<double>& values = s.values;
  values.clear();
  values.resize(valid.size());
  if (valid.size() == n) {
    primary_->EstimateBatch(queries, n, values.data());
  } else {
    // Element-wise assignment into resized (not reconstructed) slots so
    // each Query's predicate vector reuses its capacity batch to batch.
    std::vector<Query>& compacted = s.compacted;
    if (compacted.size() < valid.size()) compacted.resize(valid.size());
    for (size_t k = 0; k < valid.size(); ++k) {
      compacted[k] = queries[valid[k]];
    }
    primary_->EstimateBatch(compacted.data(), valid.size(), values.data());
  }
  // The breaker sees each outcome in query order.
  for (size_t k = 0; k < valid.size(); ++k) {
    const size_t i = valid[k];
    out[i] = Settle(queries[i], values[k], 0.0, /*probe=*/false, key_at(i));
  }
}

void GuardedEstimator::EstimateBatch(const Query* queries, size_t n,
                                     double* out) const {
  std::vector<GuardedEstimate> guarded(n);
  EstimateBatchGuarded(queries, n, guarded.data());
  for (size_t i = 0; i < n; ++i) out[i] = guarded[i].value;
}

}  // namespace confcard
