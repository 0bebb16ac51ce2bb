// Process-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms cheap enough for per-query hot paths. Registration goes
// through a mutex-protected registry; recording touches only per-metric
// storage, so call sites should resolve a metric once (typically via a
// function-local static reference) and record lock-free afterwards.
//
// Counters and histograms are sharded into kMetricShards owned slots plus
// one shared slot, each cache-line padded. A thread leases a free owned
// slot at its first record and keeps it until it exits; being the slot's
// only writer, it updates it with relaxed loads and stores, so a record
// issues no locked instruction and shares no cache line with another
// recorder. A thread that finds every owned slot leased records into the
// shared slot with relaxed fetch_add and CAS loops instead. At thread
// exit the lease returns to the pool, and any record made later in that
// exit (a thread_local destructor, say) lands in the shared slot.
// Aggregation across slots happens only at snapshot/export time.
// Single-threaded runs use exactly one slot per metric, so aggregated
// values (including floating-point sums) are bit-identical to an
// unsharded implementation.
//
// Metric objects live for the whole process: Reset() zeroes values but
// never invalidates references handed out by the registry. Reset() is
// only for quiesced metrics: an owner's update is a load and a store, so
// one that runs across a concurrent Reset() writes the old total back.
#ifndef CONFCARD_OBS_METRICS_H_
#define CONFCARD_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace confcard {
namespace obs {

/// Number of owned slots each counter/histogram leases out, one per live
/// recording thread. Threads beyond that share one more slot, index
/// kMetricShards, so a metric holds kMetricShards + 1 slots in all.
inline constexpr size_t kMetricShards = 16;

/// Runtime kill switch for every metric record path. With recording
/// disabled, Counter::Increment, Gauge::Set, and Histogram::Record
/// reduce to one relaxed load and a branch — the "obs off" baseline that
/// bench_obs compares against. Registration, snapshots, and metadata are
/// unaffected. Defaults to enabled.
void SetMetricsEnabled(bool enabled);
bool MetricsEnabled();

/// NaN-safe relaxed atomic helpers for doubles (used by the histograms'
/// shared slot; exposed for tests and benches). A NaN delta or candidate is
/// dropped instead of poisoning the accumulator, and a NaN already in
/// `target` is replaced by the first well-formed candidate.
void AtomicAddDouble(std::atomic<double>* target, double delta);
void AtomicMinDouble(std::atomic<double>* target, double value);
void AtomicMaxDouble(std::atomic<double>* target, double value);

namespace internal {

/// Slot shared by every thread that holds no owned slot.
inline constexpr uint32_t kSharedMetricSlot =
    static_cast<uint32_t>(kMetricShards);
/// The calling thread has not recorded yet.
inline constexpr uint32_t kNoMetricSlot = ~uint32_t{0};

/// The calling thread's slot. Constant-initialized and trivially
/// destructible: one TLS load, readable until the thread is gone.
inline uint32_t& ThreadMetricSlot() {
  static thread_local uint32_t slot = kNoMetricSlot;
  return slot;
}

/// Leases the lowest free owned slot to the calling thread, or gives it
/// the shared slot when all kMetricShards are leased. Runs once per
/// thread, at its first record.
uint32_t LeaseMetricSlot();

/// Returns the calling thread's owned slot to the pool; its later
/// records land in the shared slot. Runs at thread exit; tests call it
/// to start from a known set of leases.
void ReleaseMetricSlot();

/// Stable slot of the calling thread: < kMetricShards when owned,
/// kSharedMetricSlot otherwise.
inline uint32_t MetricShardIndex() {
  const uint32_t slot = ThreadMetricSlot();
  return slot != kNoMetricSlot ? slot : LeaseMetricSlot();
}

/// Backing flag for SetMetricsEnabled, inline so the record-path check
/// compiles to a single relaxed load without a function call.
inline std::atomic<bool> g_metrics_recording{true};

inline bool RecordingEnabled() {
  return g_metrics_recording.load(std::memory_order_relaxed);
}

struct alignas(64) PaddedCount {
  std::atomic<uint64_t> v{0};
};

}  // namespace internal

/// Monotonically increasing event count. Increment adds to the calling
/// thread's slot: a load and a store when the thread owns it, a relaxed
/// fetch_add on the shared slot; value() sums the slots.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (!internal::RecordingEnabled()) return;
    const uint32_t slot = internal::MetricShardIndex();
    std::atomic<uint64_t>& v = shards_[slot].v;
    if (slot != internal::kSharedMetricSlot) {
      v.store(v.load(std::memory_order_relaxed) + n,
              std::memory_order_relaxed);
    } else {
      v.fetch_add(n, std::memory_order_relaxed);
    }
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const auto& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (auto& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<internal::PaddedCount, kMetricShards + 1> shards_{};
};

/// Last-write-wins scalar (calibration-set sizes, epoch losses, ...).
/// Not sharded: "last write" has no useful meaning per-slot, and a single
/// relaxed store is already wait-free; writers racing on the same gauge
/// are rare and the winner is arbitrary either way.
class Gauge {
 public:
  void Set(double v) {
    if (!internal::RecordingEnabled()) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed power-of-two-bucket histogram for non-negative samples
/// (canonically latencies in microseconds). Bucket i holds samples in
/// (2^(i-1), 2^i]; the last bucket is unbounded. Recording updates only
/// the calling thread's slot: a bucket add, the sum, and min/max when
/// the sample passes them, each a load and a store on an owned slot
/// (fetch_add and CAS loops on the shared one); summary percentiles are
/// interpolated from the merged bucket boundaries at snapshot time.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  void Record(double value);
  void Reset();

  /// Upper bound of bucket `i` (+inf for the last bucket).
  static double BucketUpperBound(size_t i);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
    std::array<uint64_t, kNumBuckets> buckets{};

    double Mean() const { return count == 0 ? 0.0 : sum / count; }
    /// Percentile estimate (p in [0, 100]) by linear interpolation within
    /// the containing bucket, clamped to the observed [min, max].
    double Percentile(double p) const;
  };
  Snapshot TakeSnapshot() const;

 private:
  // No per-shard count: every record lands in exactly one bucket, so the
  // sample count is the bucket total, summed at snapshot time instead of
  // paying a third fetch_add per record.
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kNumBuckets> buckets{};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };
  std::array<Shard, kMetricShards + 1> shards_{};
};

/// Process-wide registry. Names are dot-separated paths, lowercase, with
/// the owning layer as the first segment and the unit as a suffix where
/// one applies (see docs/OBSERVABILITY.md), e.g. "ce.mscn.infer_us".
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  /// Finds or creates; the returned reference is valid for the process
  /// lifetime.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Free-form run metadata (scale, seeds, model configs) carried into
  /// the JSON artifact. Last write per key wins.
  void SetMeta(std::string_view key, std::string_view value);
  void SetMeta(std::string_view key, double value);

  struct Snapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
    std::vector<std::pair<std::string, std::string>> meta;
  };
  /// Consistent-enough point-in-time view (each metric is aggregated
  /// across its shards; the set of metrics is read under the registry
  /// lock).
  Snapshot TakeSnapshot() const;

  /// Prometheus text exposition (version 0.0.4) of the current snapshot:
  /// `# HELP` (carrying the original dotted name) and `# TYPE` per
  /// metric, cumulative `_bucket{le="..."}` series plus `_sum` /
  /// `_count` per histogram, metric names sanitized to [a-z0-9_], label
  /// values escaped per the spec (backslash, double-quote, newline), run
  /// metadata as leading comments. The integration point for a future
  /// serving front-end's /metrics endpoint.
  std::string WriteTextExposition() const;

  /// Zeroes every metric and clears metadata without destroying the
  /// metric objects (outstanding references stay valid). Test-only.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, std::string, std::less<>> meta_;
};

/// Shorthand for MetricsRegistry::Instance().
inline MetricsRegistry& Metrics() { return MetricsRegistry::Instance(); }

}  // namespace obs
}  // namespace confcard

#endif  // CONFCARD_OBS_METRICS_H_
