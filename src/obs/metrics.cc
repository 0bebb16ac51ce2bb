#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace confcard {
namespace obs {

namespace internal {
namespace {

static_assert(kMetricShards < 32, "the lease set is one 32-bit mask");
constexpr uint32_t kAllOwnedSlots = (uint32_t{1} << kMetricShards) - 1;

// Bit i is set while owned slot i is leased to a live thread.
std::atomic<uint32_t> g_leased_slots{0};

// Constructed on a thread's first lease; its destructor runs with the
// thread's other thread_locals and returns the slot.
struct SlotLease {
  ~SlotLease() { ReleaseMetricSlot(); }
};

}  // namespace

uint32_t LeaseMetricSlot() {
  uint32_t& slot = ThreadMetricSlot();
  uint32_t leased = g_leased_slots.load(std::memory_order_relaxed);
  for (;;) {
    const uint32_t free = ~leased & kAllOwnedSlots;
    if (free == 0) {
      slot = kSharedMetricSlot;
      return slot;
    }
    const uint32_t bit = free & (0u - free);
    // Acquire pairs with the previous owner's release, so its last
    // stores to the slot are what this thread's first loads read.
    if (g_leased_slots.compare_exchange_weak(leased, leased | bit,
                                             std::memory_order_acquire,
                                             std::memory_order_relaxed)) {
      slot = static_cast<uint32_t>(std::countr_zero(bit));
      break;
    }
  }
  static thread_local SlotLease lease;
  return slot;
}

void ReleaseMetricSlot() {
  uint32_t& slot = ThreadMetricSlot();
  if (slot < kSharedMetricSlot) {
    g_leased_slots.fetch_and(~(uint32_t{1} << slot),
                             std::memory_order_release);
  }
  slot = kSharedMetricSlot;
}

}  // namespace internal

void SetMetricsEnabled(bool enabled) {
  internal::g_metrics_recording.store(enabled, std::memory_order_relaxed);
}

bool MetricsEnabled() { return internal::RecordingEnabled(); }

// fetch_add on atomic<double> is C++20 but spotty in older libstdc++;
// a relaxed CAS loop is portable and just as fast uncontended. The
// histograms take these loops only on their shared slot, where threads
// without an owned slot do contend.
void AtomicAddDouble(std::atomic<double>* target, double delta) {
  if (std::isnan(delta)) return;
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + delta,
                                        std::memory_order_relaxed)) {
  }
}

// The min/max loops must re-test the bound after every failed exchange:
// compare_exchange_weak reloads `cur`, and another thread may have
// installed something smaller (resp. larger) in the meantime, making the
// store not just unnecessary but wrong. NaN candidates are dropped, and
// a NaN already in `target` (never written by the histograms, but
// possible for external users) loses to any well-formed candidate so the
// accumulator self-heals.
void AtomicMinDouble(std::atomic<double>* target, double value) {
  if (std::isnan(value)) return;
  double cur = target->load(std::memory_order_relaxed);
  while (value < cur || std::isnan(cur)) {
    if (target->compare_exchange_weak(cur, value,
                                      std::memory_order_relaxed)) {
      return;
    }
  }
}

void AtomicMaxDouble(std::atomic<double>* target, double value) {
  if (std::isnan(value)) return;
  double cur = target->load(std::memory_order_relaxed);
  while (value > cur || std::isnan(cur)) {
    if (target->compare_exchange_weak(cur, value,
                                      std::memory_order_relaxed)) {
      return;
    }
  }
}

namespace {

// Bucket for `value`: i such that value is in (2^(i-1), 2^i]. Computed
// from the IEEE-754 exponent field instead of frexp/ldexp — the libm
// calls dominated the record path. With value > 1.0 the biased exponent
// is >= the bias, so `e` is non-negative: a zero mantissa means value ==
// 2^e exactly (its own bucket's upper bound), anything else lies above
// 2^e and rounds up a bucket. Infinity decays to the last bucket via the
// clamp.
size_t BucketIndex(double value) {
  if (!(value > 1.0)) return 0;  // also catches NaN
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const uint64_t mantissa = bits & ((uint64_t{1} << 52) - 1);
  const uint64_t e = ((bits >> 52) & 0x7ff) - 1023;
  const uint64_t idx = e + (mantissa != 0 ? 1 : 0);
  return static_cast<size_t>(
      std::min<uint64_t>(idx, Histogram::kNumBuckets - 1));
}

}  // namespace

void Histogram::Record(double value) {
  if (!internal::RecordingEnabled()) return;
  if (std::isnan(value)) return;
  value = std::max(value, 0.0);
  const uint32_t slot = internal::MetricShardIndex();
  Shard& s = shards_[slot];
  std::atomic<uint64_t>& bucket = s.buckets[BucketIndex(value)];
  if (slot != internal::kSharedMetricSlot) {
    // Owned slot: this thread is its only writer.
    constexpr auto kRelaxed = std::memory_order_relaxed;
    bucket.store(bucket.load(kRelaxed) + 1, kRelaxed);
    s.sum.store(s.sum.load(kRelaxed) + value, kRelaxed);
    if (value < s.min.load(kRelaxed)) s.min.store(value, kRelaxed);
    if (value > s.max.load(kRelaxed)) s.max.store(value, kRelaxed);
    return;
  }
  bucket.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&s.sum, value);
  AtomicMinDouble(&s.min, value);
  AtomicMaxDouble(&s.max, value);
}

void Histogram::Reset() {
  for (auto& s : shards_) {
    for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    s.sum.store(0.0, std::memory_order_relaxed);
    s.min.store(std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
    s.max.store(-std::numeric_limits<double>::infinity(),
                std::memory_order_relaxed);
  }
}

double Histogram::BucketUpperBound(size_t i) {
  if (i + 1 >= kNumBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return std::ldexp(1.0, static_cast<int>(i));
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot s;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  // Shards are merged in slot order. A single-threaded run records into
  // exactly one slot, and adding the other slots' 0.0 sums is exact, so
  // the aggregate matches an unsharded accumulator bit for bit.
  for (const Shard& shard : shards_) {
    s.sum += shard.sum.load(std::memory_order_relaxed);
    min = std::min(min, shard.min.load(std::memory_order_relaxed));
    max = std::max(max, shard.max.load(std::memory_order_relaxed));
    for (size_t i = 0; i < kNumBuckets; ++i) {
      s.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  for (uint64_t b : s.buckets) s.count += b;
  s.min = s.count == 0 ? 0.0 : min;
  s.max = s.count == 0 ? 0.0 : max;
  return s;
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count);
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t next = seen + buckets[i];
    if (static_cast<double>(next) >= target) {
      const double lo = i == 0 ? 0.0 : BucketUpperBound(i - 1);
      double hi = BucketUpperBound(i);
      if (std::isinf(hi)) hi = std::max(max, lo);
      const double frac =
          (target - static_cast<double>(seen)) / static_cast<double>(buckets[i]);
      return std::clamp(lo + frac * (hi - lo), min, max);
    }
    seen = next;
  }
  return max;
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::GetHistogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

void MetricsRegistry::SetMeta(std::string_view key, std::string_view value) {
  std::lock_guard<std::mutex> lock(mu_);
  meta_.insert_or_assign(std::string(key), std::string(value));
}

void MetricsRegistry::SetMeta(std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  SetMeta(key, std::string_view(buf));
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot s;
  std::lock_guard<std::mutex> lock(mu_);
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    s.histograms.emplace_back(name, h->TakeSnapshot());
  }
  s.meta.reserve(meta_.size());
  for (const auto& [key, value] : meta_) s.meta.emplace_back(key, value);
  return s;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; our dot-separated paths
// map dots (and anything else exotic) to underscores.
std::string ExpositionName(const std::string& name) {
  const bool needs_prefix = name.empty() || (name[0] >= '0' && name[0] <= '9');
  std::string out = needs_prefix ? "_" + name : name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

void AppendNumber(std::string* out, double v) {
  char buf[64];
  if (std::isnan(v)) {
    std::snprintf(buf, sizeof(buf), "NaN");
  } else if (std::isinf(v)) {
    std::snprintf(buf, sizeof(buf), v > 0 ? "+Inf" : "-Inf");
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out->append(buf);
}

// Label values per the text-format spec (version 0.0.4): backslash,
// double-quote, and newline must be escaped or a scraper will misparse
// the series — or worse, splice the rest of the value into a new line.
std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// HELP text escapes only backslash and newline (quotes are legal there).
std::string EscapeHelpText(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

// The dotted source name doubles as the help string: exposition names
// flatten dots to underscores, so this is the one place a scraper's user
// can recover the original registry path.
void AppendHeader(std::string* out, const std::string& exposition_name,
                  const std::string& source_name, const char* type) {
  *out += "# HELP " + exposition_name + " confcard metric " +
          EscapeHelpText(source_name) + "\n";
  *out += "# TYPE " + exposition_name + " " + type + "\n";
}

}  // namespace

std::string MetricsRegistry::WriteTextExposition() const {
  const Snapshot snap = TakeSnapshot();
  std::string out;
  out.reserve(4096);
  for (const auto& [key, value] : snap.meta) {
    // Comment lines, but still line-oriented: a raw newline in a meta
    // value would splice arbitrary text into the exposition body.
    out += "# meta ";
    out += key;
    out += " ";
    out += EscapeHelpText(value);
    out += "\n";
  }
  for (const auto& [name, value] : snap.counters) {
    const std::string n = ExpositionName(name);
    AppendHeader(&out, n, name, "counter");
    out += n + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string n = ExpositionName(name);
    AppendHeader(&out, n, name, "gauge");
    out += n + " ";
    AppendNumber(&out, value);
    out += "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string n = ExpositionName(name);
    AppendHeader(&out, n, name, "histogram");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      cumulative += h.buckets[i];
      std::string le;
      AppendNumber(&le, Histogram::BucketUpperBound(i));
      out += n + "_bucket{le=\"" + EscapeLabelValue(le) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += n + "_sum ";
    AppendNumber(&out, h.sum);
    out += "\n";
    out += n + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  meta_.clear();
}

}  // namespace obs
}  // namespace confcard
