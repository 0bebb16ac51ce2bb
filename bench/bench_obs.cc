// Observability record-path bench: measures what one metric update
// costs on the hot path, and what the whole subsystem costs a real
// training loop. Three micro sections sweep 1/4/8 threads:
//   * counter add     — sharded relaxed add (cached ref) vs a legacy
//                       replica (per-op mutex registry lookup + one
//                       shared atomic), the design this PR replaced;
//   * histogram record— sharded bucket/sum/min/max vs the legacy
//                       replica (per-op lookup + shared CAS atomics);
//   * event append    — per-thread staged JSONL records into the
//                       EventLog test sink.
// A macro section then runs the JK-CV fold-training loop twice — obs
// recording on vs SetMetricsEnabled(false) — and reports the overhead
// ratio. Emits BENCH_obs.json. The obs-smoke ctest runs this binary at
// tiny scale purely as an end-to-end exercise; throughput numbers at
// that scale are noise and nothing gates on them.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "obs/profiler.h"

namespace confcard {
namespace {

constexpr int kThreadCounts[] = {1, 4, 8};

// Ops per thread per timed section. Scaled down for smoke runs.
size_t OpsPerThread() { return bench::Scaled(400000, 20000); }

// ---------------------------------------------------------------------------
// Legacy replicas: the pre-sharding design, reproduced here so the bench
// keeps an honest baseline after the real implementation moved on. Every
// record acquires the registry mutex (name -> metric lookup, as a
// non-caching call site would) and lands on one shared atomic.

struct LegacySharedHistogram {
  static constexpr size_t kBuckets = 40;
  std::atomic<uint64_t> count{0};
  std::atomic<double> sum{0.0};
  std::atomic<double> min{1e300};
  std::atomic<double> max{-1e300};
  std::atomic<uint64_t> buckets[kBuckets] = {};

  void Record(double value) {
    size_t b = 0;
    double bound = 1.0;
    while (b + 1 < kBuckets && value > bound) {
      bound *= 2.0;
      ++b;
    }
    buckets[b].fetch_add(1, std::memory_order_seq_cst);
    count.fetch_add(1, std::memory_order_seq_cst);
    obs::AtomicAddDouble(&sum, value);
    obs::AtomicMinDouble(&min, value);
    obs::AtomicMaxDouble(&max, value);
  }
};

// Names resembling the repo's real metric population, so the legacy
// replica's per-op lookup walks a realistically sized map with the long
// shared prefixes dotted paths have.
const char* const kRegistryNames[] = {
    "ce.guard.queries",        "ce.guard.primary_ok",
    "ce.guard.sanitized_nan",  "ce.guard.sanitized_negative",
    "ce.guard.budget_exceeded", "ce.guard.retries",
    "ce.guard.retry_success",  "ce.guard.fallback_served",
    "ce.guard.invalid_query",  "ce.guard.breaker_trips",
    "ce.guard.breaker_probes", "ce.guard.breaker_recoveries",
    "ce.infer.batch_queries",  "ce.infer.batch_calls",
    "ce.mscn.infer_us",        "ce.naru.infer_us",
    "ce.lwnn.infer_us",        "harness.prep_us",
    "harness.fold_train_ms",   "harness.calibrate_us",
    "harness.score_us",        "harness.interval_us",
    "pool.tasks_executed",     "pool.busy_us",
    "pool.queue_depth",        "pool.threads",
    "train.epochs",            "train.epoch_loss",
    "sample.progressive_rounds", "events.appended",
};

class LegacyRegistry {
 public:
  LegacyRegistry() {
    // Pre-register the population: lookups during the timed section walk
    // the same map a warmed-up process would.
    for (const char* name : kRegistryNames) {
      counters_[name].store(0);
      histograms_[name];
    }
  }

  void IncrementCounter(const std::string& name) {
    Find(&counters_, name)->fetch_add(1, std::memory_order_seq_cst);
  }
  uint64_t counter_value(const std::string& name) {
    return Find(&counters_, name)->load();
  }
  void RecordHistogram(const std::string& name, double value) {
    Find(&histograms_, name)->Record(value);
  }
  uint64_t histogram_count(const std::string& name) {
    return Find(&histograms_, name)->count.load();
  }

 private:
  template <typename Map>
  typename Map::mapped_type* Find(Map* map, const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    return &(*map)[name];
  }

  std::mutex mu_;
  std::map<std::string, std::atomic<uint64_t>> counters_;
  std::map<std::string, LegacySharedHistogram> histograms_;
};

// ---------------------------------------------------------------------------
// Harness: run `body(thread_index)` on `threads` threads behind a start
// barrier; returns wall millis for the slowest thread.

template <typename Body>
double TimedThreads(int threads, const Body& body) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  Stopwatch watch;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  while (ready.load() < threads) std::this_thread::yield();
  watch.Restart();
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  return watch.ElapsedMillis();
}

struct SweepResult {
  std::vector<double> ops_per_sec;         // per kThreadCounts entry
  std::vector<double> legacy_ops_per_sec;  // empty when no legacy side
};

double Throughput(int threads, size_t per_thread, double millis) {
  const double total = static_cast<double>(threads) *
                       static_cast<double>(per_thread);
  return total / (millis * 1e-3);
}

SweepResult SweepCounter() {
  SweepResult r;
  const size_t ops = OpsPerThread();
  obs::Counter& counter = obs::Metrics().GetCounter("bench.obs.counter");
  for (int threads : kThreadCounts) {
    counter.Reset();
    double ms = TimedThreads(threads, [&](int) {
      for (size_t i = 0; i < ops; ++i) counter.Increment();
    });
    CONFCARD_CHECK(counter.value() ==
                   static_cast<uint64_t>(threads) * ops);
    r.ops_per_sec.push_back(Throughput(threads, ops, ms));

    LegacyRegistry legacy;
    const std::string name = "bench.obs.counter";
    ms = TimedThreads(threads, [&](int) {
      for (size_t i = 0; i < ops; ++i) legacy.IncrementCounter(name);
    });
    CONFCARD_CHECK(legacy.counter_value(name) ==
                   static_cast<uint64_t>(threads) * ops);
    r.legacy_ops_per_sec.push_back(Throughput(threads, ops, ms));
    std::printf("counter   threads=%d  sharded %10.0f ops/s  legacy %10.0f "
                "ops/s  (%.1fx)\n",
                threads, r.ops_per_sec.back(), r.legacy_ops_per_sec.back(),
                r.ops_per_sec.back() / r.legacy_ops_per_sec.back());
  }
  counter.Reset();
  return r;
}

SweepResult SweepHistogram() {
  SweepResult r;
  const size_t ops = OpsPerThread();
  obs::Histogram& hist = obs::Metrics().GetHistogram("bench.obs.hist");
  for (int threads : kThreadCounts) {
    hist.Reset();
    double ms = TimedThreads(threads, [&](int t) {
      for (size_t i = 0; i < ops; ++i) {
        hist.Record(static_cast<double>((i + static_cast<size_t>(t)) % 4096));
      }
    });
    CONFCARD_CHECK(hist.TakeSnapshot().count ==
                   static_cast<uint64_t>(threads) * ops);
    r.ops_per_sec.push_back(Throughput(threads, ops, ms));

    LegacyRegistry legacy;
    const std::string name = "bench.obs.hist";
    ms = TimedThreads(threads, [&](int t) {
      for (size_t i = 0; i < ops; ++i) {
        legacy.RecordHistogram(
            name, static_cast<double>((i + static_cast<size_t>(t)) % 4096));
      }
    });
    CONFCARD_CHECK(legacy.histogram_count(name) ==
                   static_cast<uint64_t>(threads) * ops);
    r.legacy_ops_per_sec.push_back(Throughput(threads, ops, ms));
    std::printf("histogram threads=%d  sharded %10.0f ops/s  legacy %10.0f "
                "ops/s  (%.1fx)\n",
                threads, r.ops_per_sec.back(), r.legacy_ops_per_sec.back(),
                r.ops_per_sec.back() / r.legacy_ops_per_sec.back());
  }
  hist.Reset();
  return r;
}

SweepResult SweepEventAppend() {
  SweepResult r;
  // Event records are much heavier than metric updates (string build +
  // staging); scale the op count down to keep runtimes comparable.
  const size_t ops = OpsPerThread() / 20;
  obs::EventLog& elog = obs::EventLog::Instance();
  const std::string path = "bench_obs_events.jsonl";
  for (int threads : kThreadCounts) {
    CONFCARD_CHECK(elog.OpenForTest(path).ok());
    const double ms = TimedThreads(threads, [&](int t) {
      for (size_t i = 0; i < ops; ++i) {
        obs::JsonWriter w;
        w.BeginObject();
        w.Key("type").String("bench");
        w.Key("thread").Int(static_cast<uint64_t>(t));
        w.Key("i").Int(i);
        w.EndObject();
        elog.AppendRecord(w.TakeString());
      }
    });
    CONFCARD_CHECK(elog.appended() ==
                   static_cast<uint64_t>(threads) * ops);
    elog.CloseForTest();
    r.ops_per_sec.push_back(Throughput(threads, ops, ms));
    std::printf("event     threads=%d  staged  %10.0f ops/s\n", threads,
                r.ops_per_sec.back());
  }
  std::remove(path.c_str());
  return r;
}

// ---------------------------------------------------------------------------
// Macro overhead: the JK-CV fold-training loop with obs recording on vs
// the kill switch thrown. Identical work, identical seeds; the only
// difference is whether Counter/Gauge/Histogram record calls land.

struct OverheadResult {
  double on_millis = 0.0;
  double off_millis = 0.0;
  double overhead_frac = 0.0;
};

OverheadResult MeasureJkCvOverhead(const Table& table,
                                   const bench::Splits& splits) {
  OverheadResult r;
  LwnnEstimator proto(bench::LwnnDefaults());
  CONFCARD_CHECK(proto.Train(table, splits.train).ok());
  auto run_once = [&] {
    SingleTableHarness::Options opts;
    opts.jk_folds = 4;
    SingleTableHarness h(table, splits.train, splits.calib, splits.test,
                         opts);
    Stopwatch watch;
    MethodResult m = h.RunJkCv(proto, proto, /*simplified=*/false);
    const double ms = watch.ElapsedMillis();
    CONFCARD_CHECK(!m.rows.empty());
    return ms;
  };
  // One throwaway run warms pools and caches so no timed run pays
  // first-touch costs; then interleaved on/off pairs with min-of-reps on
  // each side, so one scheduler hiccup cannot masquerade as obs
  // overhead.
  run_once();
  constexpr int kReps = 3;
  r.on_millis = 1e300;
  r.off_millis = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    r.on_millis = std::min(r.on_millis, run_once());
    obs::SetMetricsEnabled(false);
    r.off_millis = std::min(r.off_millis, run_once());
    obs::SetMetricsEnabled(true);
  }
  r.overhead_frac = r.on_millis / r.off_millis - 1.0;
  std::printf("jk-cv    obs on %8.1f ms   obs off %8.1f ms   overhead "
              "%+.2f%%\n",
              r.on_millis, r.off_millis, r.overhead_frac * 100.0);
  return r;
}

// ---------------------------------------------------------------------------
// Profiler overhead: the same JK-CV loop with SIGPROF sampling at 99 Hz
// vs profiler off, interleaved min-of-reps like the obs overhead above.
// Budget: <=2% wall time at 99 Hz, gated at full scale (smoke-scale runs
// are seconds long and scheduler noise swamps a 2% signal there). One
// JK-CV pass takes ~100 ms at full scale, and the min of 3 one-pass runs
// per side read from -1.7% to +5.4% on the same binary. So each of the
// kProfReps interleaved runs per side times passes until they add up to
// kMinGatedRunMillis and reports their mean, and both sides are warmed
// first.
// Before the first arming, the section also proves profiler-off runs
// leave clean artifacts: no prof.* metric may exist in the registry,
// since everything before this point ran with the profiler down.

constexpr int kProfReps = 9;
constexpr double kMinGatedRunMillis = 500.0;

struct ProfilerOverheadResult {
  double on_millis = 0.0;
  double off_millis = 0.0;
  double overhead_frac = 0.0;
  uint64_t samples = 0;
  uint64_t dropped = 0;
  bool artifact_clean = false;
  bool gated = false;
};

ProfilerOverheadResult MeasureProfilerOverhead(const Table& table,
                                               const bench::Splits& splits) {
  ProfilerOverheadResult r;
  if (obs::prof::ProfilerEnabled()) {
    // CONFCARD_PROFILE armed the profiler for this whole process: the
    // section cannot own Start/Stop, and prof.* metrics legitimately
    // exist. Skip rather than report a bogus measurement.
    std::printf("profiler jk-cv  skipped: CONFCARD_PROFILE armed "
                "process-wide\n");
    return r;
  }

  r.artifact_clean = true;
  const obs::MetricsRegistry::Snapshot snap = obs::Metrics().TakeSnapshot();
  auto clean = [&](const std::string& name) {
    if (name.rfind("prof.", 0) == 0) r.artifact_clean = false;
  };
  for (const auto& [name, value] : snap.counters) clean(name);
  for (const auto& [name, value] : snap.gauges) clean(name);
  for (const auto& [name, value] : snap.histograms) clean(name);
  CONFCARD_CHECK_MSG(r.artifact_clean,
                     "prof.* metrics present before the profiler ever armed "
                     "— profiler-off artifacts are not clean");

  LwnnEstimator proto(bench::LwnnDefaults());
  CONFCARD_CHECK(proto.Train(table, splits.train).ok());
  auto run_once = [&] {
    SingleTableHarness::Options opts;
    opts.jk_folds = 4;
    SingleTableHarness h(table, splits.train, splits.calib, splits.test,
                         opts);
    Stopwatch watch;
    MethodResult m = h.RunJkCv(proto, proto, /*simplified=*/false);
    const double ms = watch.ElapsedMillis();
    CONFCARD_CHECK(!m.rows.empty());
    return ms;
  };
  r.gated = bench::BenchScale() >= 0.5;
  const double min_run_millis = r.gated ? kMinGatedRunMillis : 0.0;
  const std::string prof_path = "bench_obs_profile.folded";
  // Mean milliseconds per pass of one run.
  auto timed_run = [&] {
    double ms = 0.0;
    int passes = 0;
    do {
      ms += run_once();
      ++passes;
    } while (ms < min_run_millis);
    return ms / passes;
  };
  auto profiled_run = [&] {
    CONFCARD_CHECK(obs::prof::StartProfiler(prof_path, 99).ok());
    const double ms = timed_run();
    r.samples = obs::prof::SampleCount();
    r.dropped = obs::prof::DroppedSampleCount();
    CONFCARD_CHECK(obs::prof::StopProfilerAndWrite().ok());
    return ms;
  };
  // Warm both sides, so neither first touches nor the first arming land
  // in a timed run.
  run_once();
  CONFCARD_CHECK(obs::prof::StartProfiler(prof_path, 99).ok());
  run_once();
  CONFCARD_CHECK(obs::prof::StopProfilerAndWrite().ok());
  r.on_millis = 1e300;
  r.off_millis = 1e300;
  for (int rep = 0; rep < kProfReps; ++rep) {
    r.off_millis = std::min(r.off_millis, timed_run());
    r.on_millis = std::min(r.on_millis, profiled_run());
  }
  std::remove(prof_path.c_str());
  r.overhead_frac = r.on_millis / r.off_millis - 1.0;
  std::printf("profiler jk-cv  on %8.1f ms   off %8.1f ms per pass   "
              "overhead %+.2f%%  (min of %d runs of >= %.0f ms per side; "
              "%llu samples @ 99 Hz in the last, %llu dropped)\n",
              r.on_millis, r.off_millis, r.overhead_frac * 100.0, kProfReps,
              min_run_millis, static_cast<unsigned long long>(r.samples),
              static_cast<unsigned long long>(r.dropped));
  if (r.gated) {
    CONFCARD_CHECK_MSG(r.overhead_frac <= 0.02,
                       "99 Hz sampling overhead exceeds the 2% budget");
  }
  return r;
}

void WriteSweep(obs::JsonWriter* w, const char* name,
                const SweepResult& sweep) {
  w->Key(name).BeginObject();
  w->Key("threads").BeginArray();
  for (int t : kThreadCounts) w->Int(static_cast<uint64_t>(t));
  w->EndArray();
  w->Key("ops_per_sec").BeginArray();
  for (double v : sweep.ops_per_sec) w->Number(v);
  w->EndArray();
  if (!sweep.legacy_ops_per_sec.empty()) {
    w->Key("legacy_ops_per_sec").BeginArray();
    for (double v : sweep.legacy_ops_per_sec) w->Number(v);
    w->EndArray();
    w->Key("speedup_vs_legacy").BeginArray();
    for (size_t i = 0; i < sweep.ops_per_sec.size(); ++i) {
      w->Number(sweep.ops_per_sec[i] / sweep.legacy_ops_per_sec[i]);
    }
    w->EndArray();
  }
  w->EndObject();
}

int Main() {
  bench::PrintScaleNote();
  std::printf("hardware threads: %d\n", HardwareThreads());

  const SweepResult counter = SweepCounter();
  const SweepResult histogram = SweepHistogram();
  const SweepResult events = SweepEventAppend();

  Table table = MakeDmv(bench::DefaultRows(), 3).value();
  bench::Splits splits = bench::MakeSplits(table);
  const OverheadResult overhead = MeasureJkCvOverhead(table, splits);
  const ProfilerOverheadResult prof = MeasureProfilerOverhead(table, splits);

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("obs");
  w.Key("hardware_threads").Int(static_cast<uint64_t>(HardwareThreads()));
  w.Key("scale").Number(bench::BenchScale());
  w.Key("ops_per_thread").Int(OpsPerThread());
  WriteSweep(&w, "counter", counter);
  WriteSweep(&w, "histogram", histogram);
  WriteSweep(&w, "event_append", events);
  w.Key("jk_cv_overhead").BeginObject();
  w.Key("obs_on_millis").Number(overhead.on_millis);
  w.Key("obs_off_millis").Number(overhead.off_millis);
  w.Key("overhead_fraction").Number(overhead.overhead_frac);
  w.EndObject();
  w.Key("profiler_overhead").BeginObject();
  w.Key("prof_on_millis").Number(prof.on_millis);
  w.Key("prof_off_millis").Number(prof.off_millis);
  w.Key("overhead_fraction").Number(prof.overhead_frac);
  w.Key("hz").Int(99);
  w.Key("runs_per_side").Int(static_cast<uint64_t>(kProfReps));
  w.Key("min_run_millis").Number(prof.gated ? kMinGatedRunMillis : 0.0);
  w.Key("samples").Int(prof.samples);
  w.Key("dropped_samples").Int(prof.dropped);
  w.Key("artifact_clean").Bool(prof.artifact_clean);
  w.Key("gated").Bool(prof.gated);
  w.EndObject();
  w.EndObject();

  const char* path = "BENCH_obs.json";
  std::ofstream out(path, std::ios::binary);
  CONFCARD_CHECK_MSG(out.is_open(), "cannot write BENCH_obs.json");
  out << w.str() << "\n";
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace confcard

int main() { return confcard::Main(); }
