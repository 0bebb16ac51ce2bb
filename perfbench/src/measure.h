// Measurement helpers of the benchmark: a fixed-size latency histogram,
// due-time accounting for open-loop arrivals, a ring of reusable request
// slots, and the answered/shed/coverage tally. Header-only so the unit
// tests build without the workloads.
#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ctime>
#include <limits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "serve/serve.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// CPU time in ns on `clock`: CLOCK_THREAD_CPUTIME_ID for the calling
/// thread, CLOCK_PROCESS_CPUTIME_ID for all threads of the process. Time
/// a thread waits for a CPU is not counted, and on a KVM guest with
/// paravirtual steal accounting neither is time the host gives the vCPU
/// to another guest, so CPU time per unit of work stays put on a shared
/// host where wall time does not.
inline int64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Log-linear histogram of non-negative integer samples (nanoseconds by
/// convention). Values below 128 get exact buckets; above, every octave
/// splits into 128 buckets, so a bucket spans under 0.8% of its value.
/// The size is fixed, so memory does not grow with run length.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;
  static constexpr size_t kBuckets = kSub * 40;

  void Record(uint64_t v) {
    ++counts_[Index(v)];
    ++count_;
    sum_ += static_cast<double>(v);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  uint64_t count() const { return count_; }
  double Mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Value at quantile q in [0, 1]: the bucket holding rank q * count,
  /// interpolated linearly by rank inside that bucket and clamped to the
  /// observed range. 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = std::clamp(q, 0.0, 1.0) * static_cast<double>(count_);
    double seen = 0.0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (counts_[i] == 0) continue;
      const double c = static_cast<double>(counts_[i]);
      if (seen + c >= rank) {
        const double frac = (rank - seen) / c;
        const double v = static_cast<double>(Lower(i)) +
                         frac * static_cast<double>(Width(i));
        return std::clamp(v, static_cast<double>(min_),
                          static_cast<double>(max_));
      }
      seen += c;
    }
    return static_cast<double>(max_);
  }

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int e = msb - kSubBits;
    const size_t idx = kSub * static_cast<size_t>(e + 1) +
                       static_cast<size_t>((v >> e) - kSub);
    return std::min(idx, kBuckets - 1);
  }
  static uint64_t Lower(size_t idx) {
    if (idx < kSub) return idx;
    const int e = static_cast<int>(idx / kSub) - 1;
    return (kSub + idx % kSub) << e;
  }
  static uint64_t Width(size_t idx) {
    return idx < kSub ? 1 : uint64_t{1} << (idx / kSub - 1);
  }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  double sum_ = 0.0;
  uint64_t min_ = std::numeric_limits<uint64_t>::max();
  uint64_t max_ = 0;
};

/// Seeded Poisson arrival schedule: due times as nanosecond offsets from
/// the start of a phase, with exponential gaps at a fixed rate.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_s, uint64_t seed)
      : mean_gap_ns_(1e9 / rate_per_s), rng_(seed) {}

  /// Offset of the next arrival.
  int64_t Next() {
    offset_ns_ += -std::log1p(-rng_.NextDouble()) * mean_gap_ns_;
    return static_cast<int64_t>(offset_ns_);
  }

 private:
  double mean_gap_ns_;
  double offset_ns_ = 0.0;
  confcard::Rng rng_;
};

/// Open-loop timing of one request. A request is timed from its due
/// time, not from when the generator got round to submitting it, so a
/// stall of the generator or of the server is charged to every request
/// scheduled during it.
struct DueTiming {
  int64_t due_ns = 0;        // scheduled send time
  int64_t submitted_ns = 0;  // Request::submitted_at, stamped by Submit

  /// Generator lateness: how long after its due time the request was
  /// submitted (never negative).
  double LateUs() const {
    return static_cast<double>(std::max<int64_t>(0, submitted_ns - due_ns)) /
           1e3;
  }
  /// Due time to response publication. The front-end reports
  /// publication as total_us after submitted_at.
  double LatencyUs(double total_us) const {
    return static_cast<double>(submitted_ns - due_ns) / 1e3 + total_us;
  }
};

/// Fixed ring of request slots reused in submission order. A slot is
/// handed out again only after its previous request was harvested, and
/// harvesting runs oldest first, so the ring never overwrites a request
/// the front-end still owns. The front-end answers one shard's requests
/// in order, so the oldest slot is also the next to finish.
template <typename Slot>
class SlotRing {
 public:
  explicit SlotRing(size_t capacity) : slots_(capacity) {}

  size_t outstanding() const { return static_cast<size_t>(head_ - tail_); }
  bool full() const { return outstanding() == slots_.size(); }
  uint64_t submitted() const { return head_; }

  /// Next free slot; the caller must not acquire while full().
  Slot& Acquire() { return slots_[static_cast<size_t>(head_++ % slots_.size())]; }

  /// Harvests finished slots, oldest first, until the oldest is still
  /// pending. `done(slot)` tests completion; `take(slot)` consumes it.
  template <typename Done, typename Take>
  size_t Harvest(const Done& done, const Take& take) {
    size_t n = 0;
    while (tail_ != head_) {
      Slot& s = slots_[static_cast<size_t>(tail_ % slots_.size())];
      if (!done(s)) break;
      take(s);
      ++tail_;
      ++n;
    }
    return n;
  }

 private:
  std::vector<Slot> slots_;
  uint64_t head_ = 0;
  uint64_t tail_ = 0;
};

/// Outcome counts of a phase. Shed requests count as failed and stay out
/// of coverage and width: their [0, N] placeholder would count as
/// covered. Degraded answers are answered, and counted apart.
struct Tally {
  uint64_t attempted = 0;
  uint64_t answered = 0;
  uint64_t shed_queue_full = 0;
  uint64_t shed_breaker = 0;
  uint64_t shed_stopped = 0;
  uint64_t degraded = 0;
  uint64_t covered = 0;
  double width_sum = 0.0;  // sum of (hi - lo) / N over answered

  void Add(confcard::serve::Admit admit, const confcard::serve::Response& r,
           double truth, double num_rows) {
    using confcard::serve::Admit;
    ++attempted;
    switch (admit) {
      case Admit::kShedQueueFull:
        ++shed_queue_full;
        return;
      case Admit::kShedBreaker:
        ++shed_breaker;
        return;
      case Admit::kRejectedStopped:
        ++shed_stopped;
        return;
      case Admit::kAccepted:
        break;
    }
    ++answered;
    if (r.degraded) ++degraded;
    if (r.lo <= truth && truth <= r.hi) ++covered;
    width_sum += (r.hi - r.lo) / num_rows;
  }

  void Merge(const Tally& o) {
    attempted += o.attempted;
    answered += o.answered;
    shed_queue_full += o.shed_queue_full;
    shed_breaker += o.shed_breaker;
    shed_stopped += o.shed_stopped;
    degraded += o.degraded;
    covered += o.covered;
    width_sum += o.width_sum;
  }

  uint64_t failed() const {
    return shed_queue_full + shed_breaker + shed_stopped;
  }
  double AnsweredFrac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(answered) /
                                static_cast<double>(attempted);
  }
  double Coverage() const {
    return answered == 0 ? 0.0
                         : static_cast<double>(covered) /
                               static_cast<double>(answered);
  }
  double Width() const {
    return answered == 0 ? 0.0 : width_sum / static_cast<double>(answered);
  }
};

/// Quantile q in [0, 1] of a sample, interpolated linearly between the
/// order statistics (rank q * (n - 1)); 0 when empty.
inline double QuantileOf(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Median of a sample (mean of the middle two when even); 0 when empty.
inline double Median(std::vector<double> v) {
  return QuantileOf(std::move(v), 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
