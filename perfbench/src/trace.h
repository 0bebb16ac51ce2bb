// Span recording for the traced run. Spans are taken on the benchmark's
// own thread around its calls into each layer, kept in memory, and
// written out when the run ends. A span's self time is its duration
// minus the part of it that its child spans cover.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   // index of the enclosing span, -1 for a root
  uint64_t request = 0;  // request id shared by one request's spans
};

/// In-memory span store with a fixed capacity; spans past it are
/// counted and dropped, so a long run cannot grow memory without bound.
class Tracer {
 public:
  explicit Tracer(size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span under the innermost open span; returns its index, or
  /// -1 when the store is full.
  int32_t Open(const char* name, uint64_t request = 0) {
    const int32_t parent = open_.empty() ? -1 : open_.back();
    const int32_t idx = Add(name, ToNs(Clock::now()), 0, parent, request);
    open_.push_back(idx);
    return idx;
  }
  void Close(int32_t idx) {
    if (idx >= 0) spans_[static_cast<size_t>(idx)].end_ns = ToNs(Clock::now());
    open_.pop_back();
  }

  /// Records a finished span with known times (for instance one
  /// rebuilt from a response's own timestamps).
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

  /// Self time of every span, in nanoseconds, indexed like spans().
  std::vector<int64_t> SelfNs() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
      }
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& p = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0;
      int64_t cur_lo = 0;
      int64_t cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, p.start_ns);
        hi = std::min(hi, p.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      self[i] = (p.end_ns - p.start_ns) - covered;
    }
    return self;
  }

  /// Per span name: number of spans and summed self time in ns.
  std::map<std::string, std::pair<uint64_t, int64_t>> SelfByName() const {
    std::map<std::string, std::pair<uint64_t, int64_t>> out;
    const std::vector<int64_t> self = SelfNs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      auto& e = out[spans_[i].name];
      ++e.first;
      e.second += self[i];
    }
    return out;
  }

  /// Writes the spans as JSON lines; false if the file cannot be opened.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<int64_t> self = SelfNs();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu,"
                   "\"self_ns\":%lld}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t dropped_ = 0;
};

/// Opens a span for the enclosing scope when a tracer is given.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t request = 0)
      : tracer_(tracer), idx_(tracer ? tracer->Open(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t idx_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
