// Serving front-end bench: an open-loop Poisson load harness over the
// micro-batched, sharded ServeFrontEnd (writes BENCH_serving.json).
//
// Three gated contracts plus a load sweep:
//   1. Bit-identity: with no faults armed, serving a workload through
//      the micro-batcher returns exactly the per-query guarded path's
//      estimates and intervals, whatever batch partition timing
//      produced (CONFCARD_CHECKed).
//   2. Zero-alloc hot path: after a warmup pass over every batch shape,
//      worker batch cycles perform zero heap allocations
//      (CONFCARD_CHECKed, like bench_parallel's dispatch gate).
//   3. Open-loop sweep: Poisson arrivals at >= 4 offered rates derived
//      from a closed-loop capacity probe, recording throughput,
//      p50/p99/p999 latency, batch-size histogram, shed/degraded
//      fractions, and empirical interval coverage per level; the
//      highest rate meeting the p99 SLO (kSloP99Us) with <= 1% shed is
//      reported as max sustainable QPS. On hosts without enough cores
//      to run producer and workers concurrently the sustainability gate
//      is skipped with an explicit skip_reason.
//
// The front-end runs its default options (one shard, B = 32, T = 200
// us). The arrival schedule is a seeded exponential stream, and
// everything the gates check (estimates, intervals, coverage) is
// deterministic for a fixed seed; wall-clock-derived numbers (latency,
// throughput) are reported but never gated. Coverage and the degraded
// fraction count answered requests only: a shed request's [0, N]
// placeholder is not an answer.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ce/guarded.h"
#include "ce/lwnn.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "conformal/interval.h"
#include "conformal/online.h"
#include "conformal/scoring.h"
#include "conformal/split.h"
#include "data/drift.h"
#include "serve/serve.h"

namespace confcard {
namespace {

using SteadyClock = std::chrono::steady_clock;
using serve::Admit;
using serve::Request;
using serve::ServeFrontEnd;

// p99 latency SLO of the max-sustainable-QPS search.
constexpr int kSloP99Us = 20000;

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t idx = static_cast<size_t>(
      std::min<double>(static_cast<double>(values.size()) - 1.0,
                       std::ceil(q * static_cast<double>(values.size())) - 1.0));
  return values[std::max<size_t>(idx, 0)];
}

// The serving stack under test: one trained model, its guard, and a
// conformal predictor calibrated on the batched estimates of the
// calibration split.
struct Stack {
  Table table;
  bench::Splits splits;
  std::unique_ptr<LwnnEstimator> model;
  std::unique_ptr<GuardedEstimator> guard;
  std::unique_ptr<SplitConformal> scp;
  double num_rows = 0.0;
};

Stack BuildStack() {
  // Aggregate init: Table has no default constructor.
  Stack s{MakeDmv(bench::DefaultRows(), 3).value(), {}, {}, {}, {}};
  s.splits = bench::MakeSplits(s.table);
  s.num_rows = static_cast<double>(s.table.num_rows());
  s.model = std::make_unique<LwnnEstimator>(bench::LwnnDefaults());
  CONFCARD_CHECK(s.model->Train(s.table, s.splits.train).ok());
  s.guard = std::make_unique<GuardedEstimator>(*s.model, s.table);
  std::vector<Query> calib_q;
  std::vector<double> truths;
  for (const LabeledQuery& lq : s.splits.calib) {
    calib_q.push_back(lq.query);
    truths.push_back(lq.cardinality);
  }
  std::vector<double> estimates(calib_q.size());
  s.model->EstimateBatch(calib_q.data(), calib_q.size(), estimates.data());
  s.scp = std::make_unique<SplitConformal>(MakeScoring(ScoreKind::kQError),
                                           0.1);
  CONFCARD_CHECK(s.scp->Calibrate(estimates, truths).ok());
  return s;
}

// ------------------------------------------------------------------
// Gate 1: batched-vs-per-query bit identity through the live pipeline.
// ------------------------------------------------------------------

struct IdentityResult {
  size_t queries = 0;
  bool passed = false;
};

IdentityResult CheckBitIdentity(const Stack& s, ServeFrontEnd* front) {
  const size_t n = s.splits.test.size();
  std::deque<Request> requests(n);
  for (size_t i = 0; i < n; ++i) {
    requests[i].query = s.splits.test[i].query;
    CONFCARD_CHECK(front->Submit(&requests[i]) == Admit::kAccepted);
  }
  for (Request& r : requests) r.Wait();

  bool passed = true;
  for (size_t i = 0; i < n; ++i) {
    const GuardedEstimate offline =
        s.guard->EstimateGuarded(s.splits.test[i].query);
    const Interval iv =
        ClipToCardinality(s.scp->Predict(offline.value), s.num_rows);
    const serve::Response& resp = requests[i].response;
    if (resp.estimate != offline.value || resp.lo != iv.lo ||
        resp.hi != iv.hi || resp.degraded || resp.shed) {
      passed = false;
    }
  }
  std::printf("bit-identity: %zu queries through the batcher %s\n", n,
              passed ? "match the per-query path exactly" : "MISMATCH");
  return {n, passed};
}

// ------------------------------------------------------------------
// Gate 2: worker batch cycles allocate nothing once warm.
// ------------------------------------------------------------------

struct AllocResult {
  uint64_t allocs = 0;
  uint64_t requests = 0;
  int passes = 0;  // warmup+measure iterations until an alloc-free pass
  bool passed = false;
};

// Submits `group` requests back to back, then waits for all of them —
// with a generous flush timeout the worker assembles exactly this batch
// shape, so two passes (warm, then measured) see identical shapes.
void RunGroupedPass(const Stack& s, ServeFrontEnd* front, size_t group,
                    std::deque<Request>* requests) {
  const size_t n = requests->size();
  for (size_t base = 0; base < n; base += group) {
    const size_t m = std::min(group, n - base);
    for (size_t i = 0; i < m; ++i) {
      Request& r = (*requests)[base + i];
      r.Reset();
      r.query = s.splits.test[(base + i) % s.splits.test.size()].query;
      while (front->Submit(&r) != Admit::kAccepted) std::this_thread::yield();
    }
    for (size_t i = 0; i < m; ++i) (*requests)[base + i].Wait();
  }
}

AllocResult MeasureHotPathAllocs(const Stack& s, ServeFrontEnd* front) {
  const size_t group =
      std::min<size_t>(static_cast<size_t>(front->options().max_batch), 8);
  const size_t n = std::min<size_t>(s.splits.test.size(), 128);
  std::deque<Request> requests(n);
  // Warmup is shape-driven: arena free-lists are keyed by exact byte
  // size and each per-slot Query buffer must have seen its widest query,
  // so a pass only allocates when it hits a batch partition no earlier
  // pass produced — and that allocation warms the shape for good. The
  // partition space is finite (batch sizes 1..group over a fixed query
  // cycle), so repeated passes must converge to an alloc-free pass; the
  // gate fails only if they never do.
  AllocResult result;
  result.requests = n;
  constexpr int kMaxPasses = 20;
  for (result.passes = 1; result.passes <= kMaxPasses; ++result.passes) {
    front->ResetStats();
    RunGroupedPass(s, front, group, &requests);
    result.allocs = front->HotPathAllocs();
    if (result.allocs == 0) break;
  }
  result.passed = result.allocs == 0;
  std::printf(
      "hot-path allocs: 0 per request after %d warmup pass(es) of %llu "
      "requests (%s; last pass saw %llu)\n",
      result.passes, static_cast<unsigned long long>(result.requests),
      result.passed ? "pass" : "FAIL",
      static_cast<unsigned long long>(result.allocs));
  return result;
}

// ------------------------------------------------------------------
// Closed-loop capacity probe: back-to-back pipelined submission (retry
// on shed) bounds the stack's throughput; the open-loop sweep offers
// fractions and multiples of this rate.
// ------------------------------------------------------------------

struct Capacity {
  double qps = 0.0;
  size_t requests = 0;
  double millis = 0.0;
};

Capacity ProbeCapacity(const Stack& s, ServeFrontEnd* front) {
  const size_t n = bench::Scaled(8000, 800);
  std::deque<Request> requests(n);
  Stopwatch watch;
  for (size_t i = 0; i < n; ++i) {
    Request& r = requests[i];
    r.query = s.splits.test[i % s.splits.test.size()].query;
    while (front->Submit(&r) != Admit::kAccepted) std::this_thread::yield();
  }
  for (Request& r : requests) r.Wait();
  Capacity cap;
  cap.millis = watch.ElapsedMillis();
  cap.requests = n;
  cap.qps = static_cast<double>(n) / (cap.millis / 1000.0);
  std::printf("closed-loop capacity: %.0f qps (%zu requests in %.1f ms)\n",
              cap.qps, n, cap.millis);
  return cap;
}

// ------------------------------------------------------------------
// Open-loop Poisson sweep.
// ------------------------------------------------------------------

struct LoadLevel {
  double offered_qps = 0.0;
  size_t requests = 0;
  size_t shed = 0;
  size_t degraded = 0;
  size_t covered = 0;
  double throughput_qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  std::vector<uint64_t> batch_counts;

  double shed_fraction() const { return Fraction(shed, requests); }
  // Over answered requests only: a shed request's [0, N] placeholder
  // would count as covered and (being flagged degraded) as degraded.
  double degraded_fraction() const {
    return Fraction(degraded, requests - shed);
  }
  double coverage() const { return Fraction(covered, requests - shed); }

  static double Fraction(size_t part, size_t whole) {
    return whole == 0
               ? 0.0
               : static_cast<double>(part) / static_cast<double>(whole);
  }
};

LoadLevel RunOpenLoopLevel(const Stack& s, ServeFrontEnd* front,
                           double offered_qps, size_t num_requests,
                           uint64_t seed) {
  LoadLevel level;
  level.offered_qps = offered_qps;
  level.requests = num_requests;
  front->ResetStats();

  std::deque<Request> requests(num_requests);
  // Deterministic Poisson process: seeded exponential inter-arrivals.
  // Open loop — the producer paces submissions by the schedule alone and
  // never waits for responses, so queueing delay shows up as latency
  // (or shedding), exactly like an external client population.
  Rng rng(seed);
  const SteadyClock::time_point start = SteadyClock::now();
  double arrival_us = 0.0;
  Stopwatch watch;
  for (size_t i = 0; i < num_requests; ++i) {
    arrival_us += -std::log1p(-rng.NextDouble()) * 1e6 / offered_qps;
    const SteadyClock::time_point target =
        start + std::chrono::microseconds(static_cast<int64_t>(arrival_us));
    std::this_thread::sleep_until(target);
    Request& r = requests[i];
    r.query = s.splits.test[i % s.splits.test.size()].query;
    front->Submit(&r);  // shed outcomes publish immediately
  }
  for (Request& r : requests) r.Wait();
  const double span_ms = watch.ElapsedMillis();
  level.throughput_qps =
      static_cast<double>(num_requests) / (span_ms / 1000.0);

  std::vector<double> latencies;
  latencies.reserve(num_requests);
  for (size_t i = 0; i < num_requests; ++i) {
    const serve::Response& resp = requests[i].response;
    if (resp.shed) {
      ++level.shed;
      continue;
    }
    latencies.push_back(resp.total_us);
    if (resp.degraded) ++level.degraded;
    const double truth = s.splits.test[i % s.splits.test.size()].cardinality;
    if (resp.lo <= truth && truth <= resp.hi) ++level.covered;
  }
  level.p50_us = Percentile(latencies, 0.50);
  level.p99_us = Percentile(latencies, 0.99);
  level.p999_us = Percentile(latencies, 0.999);
  level.batch_counts = front->BatchSizeCounts();
  std::printf(
      "open-loop %8.0f qps offered: served %.0f qps  p50 %7.0fus  "
      "p99 %7.0fus  p999 %7.0fus  shed %.3f  degraded %.3f  coverage %.3f\n",
      offered_qps, level.throughput_qps, level.p50_us, level.p99_us,
      level.p999_us, level.shed_fraction(), level.degraded_fraction(),
      level.coverage());
  return level;
}

void WriteLevel(obs::JsonWriter* w, const LoadLevel& level) {
  w->BeginObject();
  w->Key("offered_qps").Number(level.offered_qps);
  w->Key("requests").Int(static_cast<uint64_t>(level.requests));
  w->Key("throughput_qps").Number(level.throughput_qps);
  w->Key("p50_us").Number(level.p50_us);
  w->Key("p99_us").Number(level.p99_us);
  w->Key("p999_us").Number(level.p999_us);
  w->Key("shed_fraction").Number(level.shed_fraction());
  w->Key("degraded_fraction").Number(level.degraded_fraction());
  w->Key("coverage").Number(level.coverage());
  // Sparse batch-size histogram: parallel arrays of size -> count.
  w->Key("batch_sizes").BeginArray();
  for (size_t b = 0; b < level.batch_counts.size(); ++b) {
    if (level.batch_counts[b] > 0) w->Int(static_cast<uint64_t>(b));
  }
  w->EndArray();
  w->Key("batch_counts").BeginArray();
  for (const uint64_t c : level.batch_counts) {
    if (c > 0) w->Int(c);
  }
  w->EndArray();
  w->EndObject();
}

int Main() {
  bench::PrintScaleNote();
  const int hardware_threads = HardwareThreads();
  const ServeFrontEnd::Options options;
  std::printf(
      "hardware threads: %d  shards=1  B=%d  T=%dus  SLO p99<=%dus\n",
      hardware_threads, options.max_batch, options.flush_timeout_us,
      kSloP99Us);

  Stack stack = BuildStack();
  ServeFrontEnd front({stack.guard.get()}, *stack.scp, stack.num_rows,
                      options);

  const IdentityResult identity = CheckBitIdentity(stack, &front);
  const AllocResult allocs = MeasureHotPathAllocs(stack, &front);
  const Capacity capacity = ProbeCapacity(stack, &front);

  // Offered rates bracket the measured capacity: comfortably under,
  // near, and past saturation (where admission control must shed
  // instead of queueing unboundedly).
  const double fractions[] = {0.25, 0.5, 0.75, 1.0, 1.25};
  const size_t level_requests = bench::Scaled(4000, 400);
  std::vector<LoadLevel> levels;
  for (size_t i = 0; i < std::size(fractions); ++i) {
    const double rate = std::max(1.0, capacity.qps * fractions[i]);
    levels.push_back(RunOpenLoopLevel(stack, &front, rate, level_requests,
                                      /*seed=*/97 + i));
  }
  front.Stop();

  // Max sustainable QPS: highest offered rate whose achieved p99 meets
  // the SLO with at most 1% shed. Needs the producer and at least one
  // worker actually running in parallel to mean anything.
  const bool slo_applicable = hardware_threads >= 2;
  double max_sustainable_qps = 0.0;
  for (const LoadLevel& level : levels) {
    if (level.p99_us <= static_cast<double>(kSloP99Us) &&
        level.shed_fraction() <= 0.01) {
      max_sustainable_qps = std::max(max_sustainable_qps, level.offered_qps);
    }
  }
  std::string skip_reason;
  if (!slo_applicable) {
    skip_reason = "only " + std::to_string(hardware_threads) +
                  " hardware thread(s): producer and serve workers "
                  "timeshare one core, so open-loop latency does not "
                  "measure the serving stack";
    std::printf("sustainability gate skipped: %s\n", skip_reason.c_str());
  } else {
    std::printf("max sustainable: %.0f qps at p99 <= %dus\n",
                max_sustainable_qps, kSloP99Us);
  }

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("serving");
  w.Key("hardware_threads").Int(static_cast<uint64_t>(hardware_threads));
  w.Key("scale").Number(bench::BenchScale());
  w.Key("shards").Int(1);
  w.Key("max_batch").Int(static_cast<uint64_t>(options.max_batch));
  w.Key("flush_timeout_us").Int(static_cast<uint64_t>(options.flush_timeout_us));
  w.Key("queue_capacity").Int(static_cast<uint64_t>(options.queue_capacity));
  // Everything needed to replay this run bit-for-bit: arrival seeds,
  // sweep shape, and the drift/feedback configuration in effect.
  w.Key("config").BeginObject();
  w.Key("poisson_seed_base").Int(97);  // level i draws arrivals at 97+i
  w.Key("level_requests").Int(static_cast<uint64_t>(level_requests));
  w.Key("rate_fractions").BeginArray();
  for (const double f : fractions) w.Number(f);
  w.EndArray();
  w.Key("slo_p99_us").Int(kSloP99Us);
  w.Key("drift_spec").String(drift::RenderDriftSpecs(drift::DriftSpecsFromEnv()));
  w.Key("feedback").BeginObject();
  w.Key("enabled").Bool(options.feedback);
  w.Key("feedback_capacity")
      .Int(static_cast<uint64_t>(options.feedback_capacity));
  w.Key("recal_window")
      .Int(static_cast<uint64_t>(ServeFrontEnd::kRecalWindow));
  w.Key("monitor_window")
      .Int(static_cast<uint64_t>(OnlineConformal::kMonitorWindow));
  w.Key("drift_inflation").Number(ServeFrontEnd::kDriftInflation);
  w.Key("degraded_inflation").Number(kDegradedInflation);
  w.EndObject();
  w.EndObject();
  w.Key("bit_identity").BeginObject();
  w.Key("queries").Int(static_cast<uint64_t>(identity.queries));
  w.Key("passed").Bool(identity.passed);
  w.EndObject();
  w.Key("hot_path_allocs").BeginObject();
  w.Key("allocs").Int(allocs.allocs);
  w.Key("requests").Int(allocs.requests);
  w.Key("warmup_passes").Int(static_cast<uint64_t>(allocs.passes));
  w.Key("passed").Bool(allocs.passed);
  w.EndObject();
  w.Key("closed_loop").BeginObject();
  w.Key("qps").Number(capacity.qps);
  w.Key("requests").Int(static_cast<uint64_t>(capacity.requests));
  w.Key("millis").Number(capacity.millis);
  w.EndObject();
  w.Key("levels").BeginArray();
  for (const LoadLevel& level : levels) WriteLevel(&w, level);
  w.EndArray();
  w.Key("sustainable").BeginObject();
  w.Key("applicable").Bool(slo_applicable);
  w.Key("slo_p99_us").Int(kSloP99Us);
  w.Key("max_sustainable_qps").Number(max_sustainable_qps);
  w.Key("skip_reason").String(skip_reason);  // empty when the gate ran
  w.EndObject();
  w.EndObject();

  const char* path = "BENCH_serving.json";
  std::ofstream out(path, std::ios::binary);
  CONFCARD_CHECK_MSG(out.is_open(), "cannot write BENCH_serving.json");
  out << w.str() << "\n";
  std::printf("wrote %s\n", path);

  CONFCARD_CHECK_MSG(identity.passed,
                     "micro-batched serving diverged from the per-query path");
  CONFCARD_CHECK_MSG(allocs.passed,
                     "serving hot path allocated after warmup");
  CONFCARD_CHECK_MSG(levels.size() >= 4,
                     "open-loop sweep needs >= 4 arrival rates");
  CONFCARD_CHECK_MSG(!slo_applicable || max_sustainable_qps > 0.0,
                     "no offered rate met the p99 SLO on a multi-core host");
  return 0;
}

}  // namespace
}  // namespace confcard

int main() { return confcard::Main(); }
