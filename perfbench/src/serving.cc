// The two serving workloads. serve_open drives ServeFrontEnd with open-
// loop Poisson arrivals at the `heavy` rate, feedback off; drift_feedback
// serves a generated drift stream at the `mid` rate with one Observe per
// answered request. In both, a warm closed loop that measures capacity
// comes first. The traced run replays the live batch-size mix through the
// same public functions on this thread to time the layers the worker
// runs.
#include <dirent.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "ce/guarded.h"
#include "ce/lwnn.h"
#include "ce/residual.h"
#include "common/check.h"
#include "common/parallel.h"
#include "conformal/interval.h"
#include "conformal/online.h"
#include "conformal/scoring.h"
#include "conformal/split.h"
#include "data/datasets.h"
#include "data/drift.h"
#include "measure.h"
#include "query/workload.h"
#include "serve/serve.h"
#include "trace.h"

namespace perfbench {
namespace {

using confcard::ClipToCardinality;
using confcard::GuardedEstimate;
using confcard::GuardedEstimator;
using confcard::Interval;
using confcard::LwnnEstimator;
using confcard::Query;
using confcard::SplitConformal;
using confcard::Table;
using confcard::Workload;
using confcard::serve::Admit;
using confcard::serve::Request;
using confcard::serve::Response;
using confcard::serve::ServeFrontEnd;

// Requests outstanding at most. This stays below the breaker watermark of
// the default queue (half of its 1,024 slots), so neither admission check
// can shed: when a host stall fills the window, the generator waits for a
// slot instead, and the wait is charged to the requests due meanwhile
// through their due times.
constexpr size_t kMaxOutstanding = 384;
// Requests traced per phase; the rest are counted, not traced.
constexpr uint64_t kTracedRequests = 5000;
// Queries and observations replayed through the layers per traced run.
constexpr size_t kReplayQueries = 60000;
constexpr size_t kReplayObservations = 20000;
// Spans per traced run at most: six per traced request, five per
// replayed observation, and five per replayed batch even at batch size 1.
constexpr size_t kTraceCapacity =
    6 * kTracedRequests + 5 * kReplayObservations + 5 * kReplayQueries;
constexpr uint64_t kWarmupRequests = 200000;
constexpr size_t kOnlineWindow = 512;
// The open loop is cut into kWindows equal windows, and the closed loop
// into windows of kCapacityWindowS. On a shared host the speed of a vCPU
// switches between regimes every second or so (closed-loop windows read
// about 1.35M or 2.0M QPS on serve_open within one run), with host stalls
// on top. A run therefore reports its faster windows: the lower quartile
// over windows of each window's latency percentile, and the 95th
// percentile of the windows' capacity, which the fast regime sets as
// long as it fills a twentieth of the closed loop.
constexpr int kWindows = 60;
constexpr double kCapacityWindowS = 0.1;
constexpr double kCapacityQuantile = 0.95;

// CPU time of every thread of the process but the calling one. In the
// serving workloads that is the front-end's worker: SetThreads(1) starts
// no pool helpers, and the closed loop checks the thread count.
int64_t WorkerCpuNs() {
  return CpuNs(CLOCK_PROCESS_CPUTIME_ID) - CpuNs(CLOCK_THREAD_CPUTIME_ID);
}

// Live threads of the process.
int ThreadCount() {
  int n = 0;
  if (DIR* d = opendir("/proc/self/task")) {
    while (const dirent* e = readdir(d)) n += e->d_name[0] != '.';
    closedir(d);
  }
  return n;
}

// Pins the calling thread to `cpu`; a negative cpu leaves it unpinned.
void PinTo(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  CONFCARD_CHECK_MSG(
      pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0,
      "cannot pin a thread to its CPU");
}

// ------------------------------------------------------------------
// The serving stack: table, labelled splits, guarded LW-NN, S-CP.
// ------------------------------------------------------------------

struct Stack {
  std::optional<confcard::drift::DriftStream> drift;
  std::optional<Table> own_table;
  Workload train, calib, test;
  std::unique_ptr<LwnnEstimator> lwnn;
  std::unique_ptr<GuardedEstimator> guard;
  std::unique_ptr<SplitConformal> scp;
  double num_rows = 0.0;
  double table_s = 0.0;
  double label_s = 0.0;
  double drift_stream_s = 0.0;
  double train_s = 0.0;
  double calibrate_us = 0.0;

  const Table& table() const { return drift ? drift->pre_table : *own_table; }
};

// bench_drift's base table: two correlated Zipf categoricals and one
// numeric column.
confcard::TableSpec DriftBaseSpec(size_t rows) {
  using confcard::ColumnKind;
  using confcard::ColumnSpec;
  confcard::TableSpec spec;
  spec.name = "drift_base";
  spec.num_rows = rows;
  spec.seed = 7;
  ColumnSpec c0;
  c0.name = "make";
  c0.kind = ColumnKind::kCategorical;
  c0.domain_size = 60;
  c0.zipf_skew = 0.8;
  ColumnSpec c1;
  c1.name = "model";
  c1.kind = ColumnKind::kCategorical;
  c1.domain_size = 40;
  c1.zipf_skew = 0.4;
  c1.parent = 0;
  c1.correlation = 0.6;
  ColumnSpec c2;
  c2.name = "weight";
  c2.kind = ColumnKind::kNumeric;
  c2.num_min = 0.0;
  c2.num_max = 1000.0;
  spec.columns = {c0, c1, c2};
  return spec;
}

std::unique_ptr<Stack> BuildStack(const Settings& st, bool drift) {
  auto s = std::make_unique<Stack>();
  Clock::time_point t = Clock::now();
  if (drift) {
    confcard::drift::DriftStreamOptions so;
    so.num_queries = st.drift_queries;
    so.workload.max_selectivity = 0.2;
    so.seed = 21;
    auto specs = confcard::drift::ParseDriftSpecs(st.drift_spec);
    CONFCARD_CHECK(specs.ok());
    auto stream = confcard::drift::GenerateDriftStream(
        DriftBaseSpec(st.serve_rows), so, specs.value());
    CONFCARD_CHECK_MSG(stream.ok(), "drift stream generation failed");
    s->drift = std::move(stream).value();
    s->drift_stream_s = Seconds(t, Clock::now());
  } else {
    auto table = confcard::MakeDmv(st.serve_rows, 7);
    CONFCARD_CHECK_MSG(table.ok(), "table generation failed");
    s->own_table = std::move(table).value();
    s->table_s = Seconds(t, Clock::now());
  }
  const Table& table = s->table();
  s->num_rows = static_cast<double>(table.num_rows());

  t = Clock::now();
  s->train = Label(table, st.serve_train, 1);
  s->calib = Label(table, st.serve_calib, 2);
  s->test = Label(table, st.serve_test, 3);
  s->label_s = Seconds(t, Clock::now());

  t = Clock::now();
  s->lwnn = std::make_unique<LwnnEstimator>(LwnnOptions());
  CONFCARD_CHECK(s->lwnn->Train(table, s->train).ok());
  s->train_s = Seconds(t, Clock::now());
  s->guard = std::make_unique<GuardedEstimator>(*s->lwnn, table);

  std::vector<Query> calib_q;
  std::vector<double> truths;
  for (const auto& lq : s->calib) {
    calib_q.push_back(lq.query);
    truths.push_back(lq.cardinality);
  }
  std::vector<double> estimates(calib_q.size());
  s->lwnn->EstimateBatch(calib_q.data(), calib_q.size(), estimates.data());
  s->scp = std::make_unique<SplitConformal>(
      confcard::MakeScoring(confcard::ScoreKind::kQError), st.alpha);
  t = Clock::now();
  CONFCARD_CHECK(s->scp->Calibrate(estimates, truths).ok());
  s->calibrate_us = Seconds(t, Clock::now()) * 1e6;
  return s;
}

// ------------------------------------------------------------------
// Load generation.
// ------------------------------------------------------------------

struct Slot {
  Request req;
  uint32_t query = 0;
  Admit admit = Admit::kAccepted;
  DueTiming timing;
  uint64_t id = 0;
  int window = -1;  // open-loop window of the due time; -1 in a closed loop
  bool traced = false;
  int64_t submit_begin_ns = 0;
  int64_t submit_end_ns = 0;
};

// What one phase measured.
struct Live {
  std::array<Histogram, kWindows> window_latency_ns;
  Histogram latency_ns;
  Histogram late_ns;
  Histogram queue_ns;
  Histogram service_ns;
  Histogram submit_ns;
  Histogram observe_ns;
  Tally all;
  Tally post;  // requests for post-onset queries (drift stream)
  uint64_t mismatches = 0;
  uint64_t slot_waits = 0;  // times the open loop found every slot taken
  // Closed loop, per window: answered requests per second of worker CPU
  // time, and per second of wall time.
  std::vector<double> cpu_qps;
  std::vector<double> wall_qps;
  int max_stage = 0;
  int threads = 0;  // live threads at the end of a closed loop
};

// Lower quartile over the open-loop windows of each window's latency
// quantile `q`.
double WindowedUs(const Live& live, double q) {
  std::vector<double> v;
  for (const Histogram& h : live.window_latency_ns) {
    if (h.count() > 0) v.push_back(h.Quantile(q) / 1e3);
  }
  return QuantileOf(v, 0.25);
}

struct Expected {
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

// Drives one front-end over a fixed query list. The list is served in
// order from the start once, then cycles from `repeat_from`.
class Driver {
 public:
  Driver(ServeFrontEnd* front, const Workload* queries, size_t repeat_from,
         double num_rows, const std::vector<Expected>* expected,
         bool observe)
      : front_(front),
        queries_(queries),
        repeat_from_(repeat_from),
        num_rows_(num_rows),
        expected_(expected),
        observe_(observe),
        ring_(kMaxOutstanding) {}

  // Open loop: Poisson arrivals at `rate` for `seconds`. With a tracer,
  // Submit and Observe are timed and every `sample_every`-th request
  // gets spans.
  void OpenLoop(double rate, uint64_t seed, double seconds, Live* live,
                Tracer* tracer) {
    tracer_ = tracer;
    sample_every_ = std::max<uint64_t>(
        1, static_cast<uint64_t>(rate * seconds) / kTracedRequests);
    PoissonSchedule schedule(rate, seed);
    const int64_t duration = static_cast<int64_t>(seconds * 1e9);
    const int64_t start_ns = ToNs(Clock::now());
    int64_t due = schedule.Next();
    while (due < duration) {
      if (ToNs(Clock::now()) - start_ns < due) {
        HarvestSome(live);
        continue;
      }
      if (ring_.full()) {
        ++live->slot_waits;
        while (ring_.full()) HarvestSome(live);
      }
      Submit(start_ns + due, static_cast<int>(due * kWindows / duration),
             live);
      due = schedule.Next();
    }
    Drain(live);
    tracer_ = nullptr;
  }

  // Closed loop: keeps `outstanding` requests in flight for `seconds`.
  // Every kCapacityWindowS it records the answered requests per second of
  // serving-worker CPU time (the CPU time of every thread but this one)
  // and per second of wall time.
  void ClosedLoop(size_t outstanding, double seconds, Live* live) {
    const Clock::time_point start = Clock::now();
    Clock::time_point window_start = start;
    int64_t worker0 = WorkerCpuNs();
    uint64_t answered0 = live->all.answered;
    while (true) {
      while (ring_.outstanding() < outstanding) Submit(0, -1, live);
      HarvestSome(live);
      const Clock::time_point now = Clock::now();
      const double wall_s = Seconds(window_start, now);
      if (wall_s < kCapacityWindowS) continue;
      const int64_t worker = WorkerCpuNs();
      const double answered =
          static_cast<double>(live->all.answered - answered0);
      if (worker > worker0) {
        live->cpu_qps.push_back(answered * 1e9 /
                                static_cast<double>(worker - worker0));
        live->wall_qps.push_back(answered / wall_s);
      }
      window_start = now;
      worker0 = worker;
      answered0 = live->all.answered;
      if (Seconds(start, now) >= seconds) break;
    }
    live->threads = ThreadCount();
    Drain(live);
  }

  // Closed loop over a fixed request count (warm-up).
  void ClosedCount(size_t outstanding, uint64_t count, Live* live) {
    const uint64_t target = ring_.submitted() + count;
    while (ring_.submitted() < target) {
      while (ring_.outstanding() < outstanding && ring_.submitted() < target) {
        Submit(0, -1, live);
      }
      HarvestSome(live);
    }
    Drain(live);
  }

 private:
  size_t NextQuery() {
    const size_t i = pos_;
    if (++pos_ == queries_->size()) pos_ = repeat_from_;
    return i;
  }

  // Submits the next query, due at `due_ns` in window `window` of an
  // open loop, or (window -1) as soon as a closed loop has room.
  void Submit(int64_t due_ns, int window, Live* live) {
    Slot& s = ring_.Acquire();
    s.window = window;
    s.req.Reset();
    s.query = static_cast<uint32_t>(NextQuery());
    s.req.query = (*queries_)[s.query].query;
    s.id = ring_.submitted();
    s.traced = tracer_ != nullptr && s.id % sample_every_ == 0;
    if (tracer_ != nullptr) {
      s.submit_begin_ns = ToNs(Clock::now());
      s.admit = front_->Submit(&s.req);
      s.submit_end_ns = ToNs(Clock::now());
      live->submit_ns.Record(
          static_cast<uint64_t>(s.submit_end_ns - s.submit_begin_ns));
    } else {
      s.admit = front_->Submit(&s.req);
    }
    s.timing.submitted_ns = ToNs(s.req.submitted_at);
    s.timing.due_ns = window < 0 ? s.timing.submitted_ns : due_ns;
    if (window >= 0) {
      live->late_ns.Record(static_cast<uint64_t>(s.timing.LateUs() * 1e3));
    }
  }

  void HarvestSome(Live* live) {
    ring_.Harvest([](const Slot& s) { return s.req.done(); },
                  [&](Slot& s) { Take(s, live); });
  }
  void Drain(Live* live) {
    while (ring_.outstanding() > 0) HarvestSome(live);
  }

  void Take(const Slot& s, Live* live) {
    const Response& r = s.req.response;
    const confcard::LabeledQuery& lq = (*queries_)[s.query];
    live->all.Add(s.admit, r, lq.cardinality, num_rows_);
    const bool post = s.query >= repeat_from_;
    if (post) live->post.Add(s.admit, r, lq.cardinality, num_rows_);
    if (confcard::serve::IsShed(s.admit)) return;
    if (s.window >= 0) {
      const uint64_t latency_ns =
          static_cast<uint64_t>(s.timing.LatencyUs(r.total_us) * 1e3);
      live->latency_ns.Record(latency_ns);
      live->window_latency_ns[static_cast<size_t>(s.window)].Record(latency_ns);
      live->queue_ns.Record(static_cast<uint64_t>(r.queue_us * 1e3));
      live->service_ns.Record(
          static_cast<uint64_t>((r.total_us - r.queue_us) * 1e3));
    }
    if (expected_ != nullptr) {
      const Expected& e = (*expected_)[s.query];
      if (r.estimate != e.estimate || r.lo != e.lo || r.hi != e.hi ||
          r.degraded) {
        ++live->mismatches;
      }
    }
    if (observe_) {
      live->max_stage = std::max(
          live->max_stage, static_cast<int>(front_->ShardStage(r.shard)));
      if (tracer_ != nullptr) {
        const Clock::time_point t0 = Clock::now();
        front_->Observe(lq.query, lq.cardinality);
        const Clock::time_point t1 = Clock::now();
        live->observe_ns.Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()));
        if (s.traced) {
          tracer_->Add("serve.observe", ToNs(t0), ToNs(t1), -1, s.id);
        }
      } else {
        front_->Observe(lq.query, lq.cardinality);
      }
    }
    if (s.traced) RecordSpans(s);
  }

  // One traced request: due -> publication, split into generator
  // lateness, the Submit call, queue wait and service.
  void RecordSpans(const Slot& s) {
    const Response& r = s.req.response;
    const int64_t sub = s.timing.submitted_ns;
    const int64_t dispatched = sub + static_cast<int64_t>(r.queue_us * 1e3);
    const int64_t published = sub + static_cast<int64_t>(r.total_us * 1e3);
    const int32_t root =
        tracer_->Add("serve.request", s.timing.due_ns, published, -1, s.id);
    tracer_->Add("loadgen.late", s.timing.due_ns, s.submit_begin_ns, root, s.id);
    tracer_->Add("serve.submit", s.submit_begin_ns, s.submit_end_ns, root,
                 s.id);
    tracer_->Add("serve.queue", s.submit_end_ns, dispatched, root, s.id);
    tracer_->Add("serve.service", dispatched, published, root, s.id);
  }

  ServeFrontEnd* front_;
  const Workload* queries_;
  size_t repeat_from_;
  double num_rows_;
  const std::vector<Expected>* expected_;
  bool observe_;
  SlotRing<Slot> ring_;
  size_t pos_ = 0;
  Tracer* tracer_ = nullptr;
  uint64_t sample_every_ = 1;
};

ServeFrontEnd::Options FrontOptions(bool feedback) {
  ServeFrontEnd::Options o;  // defaults: B=32, T=200us, queue 1024
  o.feedback = feedback;
  return o;
}

// A stack, its front-end, and the driver over the workload's queries,
// built and warmed. The driver points into this object, so it stays at
// one address. Members are destroyed in reverse order: the driver and the
// front-end go before the stack they use.
struct Serving {
  Serving() = default;
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  std::unique_ptr<Stack> stack;
  std::unique_ptr<ServeFrontEnd> front;
  Workload cycle;  // the served queries, in serving order
  std::vector<Expected> expected;
  std::unique_ptr<Driver> driver;
  // drift_feedback only: the warm-up driver over the pre-drift test
  // split, which the closed loop reuses.
  std::unique_ptr<Driver> stationary;
  size_t onset = 0;

  // The closed loop of drift_feedback runs on pre-drift queries: after
  // the onset the drift ladder alternates between two cost regimes, which
  // made capacity bimodal.
  Driver& CapacityDriver() { return stationary ? *stationary : *driver; }

  void Release() {
    stationary.reset();
    driver.reset();
    front.reset();
    stack.reset();
  }
};

// Builds the stack, the front-end and the warm-up `repeats` times, and
// returns the last build with the median set-up time in process CPU
// seconds.
std::unique_ptr<Serving> SetUp(const Settings& st, bool drift,
                               double* setup_s) {
  std::vector<double> times;
  auto owned = std::make_unique<Serving>();
  Serving& sv = *owned;
  for (int rep = 0; rep < st.setup_repeats; ++rep) {
    sv.Release();
    const int64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    sv.stack = BuildStack(st, drift);
    Stack& s = *sv.stack;
    // The worker thread inherits the affinity of the thread that starts
    // it: start it pinned to its CPU, then move this thread to the
    // generator's.
    PinTo(st.worker_cpu);
    sv.front = std::make_unique<ServeFrontEnd>(
        std::vector<const GuardedEstimator*>{s.guard.get()}, *s.scp,
        s.num_rows, FrontOptions(drift));
    PinTo(st.generator_cpu);
    if (drift) sv.front->WarmupFeedback(s.calib);
    auto warm = std::make_unique<Driver>(sv.front.get(), &s.test, 0,
                                         s.num_rows, nullptr, drift);
    auto scratch = std::make_unique<Live>();
    warm->ClosedCount(st.closed_loop_outstanding, kWarmupRequests,
                      scratch.get());
    if (drift) sv.stationary = std::move(warm);
    times.push_back(
        static_cast<double>(CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e9);
  }
  Stack& s = *sv.stack;
  if (drift) {
    // The stream is served in order: the pre-onset part once, then the
    // post-onset part repeatedly.
    sv.cycle = s.drift->stream;
    sv.onset = s.drift->onset_index;
  } else {
    // The seed orders the cycle over the test queries; every answer is
    // checked against the per-query guarded path.
    sv.cycle = s.test;
    confcard::Rng(SubSeed(st.seed, 5)).Shuffle(sv.cycle);
    for (const auto& lq : sv.cycle) {
      const GuardedEstimate ge = s.guard->EstimateGuarded(lq.query);
      const Interval iv = ClipToCardinality(s.scp->Predict(ge.value), s.num_rows);
      sv.expected.push_back({ge.value, iv.lo, iv.hi});
    }
  }
  sv.driver = std::make_unique<Driver>(sv.front.get(), &sv.cycle, sv.onset,
                                       s.num_rows,
                                       drift ? nullptr : &sv.expected, drift);
  *setup_s = Median(times);
  return owned;
}

// ------------------------------------------------------------------
// Replay of the worker's layers at the live batch-size mix.
// ------------------------------------------------------------------

struct Replay {
  uint64_t queries = 0;
  double batch_ns_per_request = 0.0;  // request-weighted batch time
  double checksum = 0.0;              // keeps the replayed results live
};

// Batch sizes to replay: the live counts scaled to the replay budget.
std::vector<std::pair<size_t, uint64_t>> ReplayMix(
    const std::vector<uint64_t>& counts) {
  uint64_t live_queries = 0;
  for (size_t b = 1; b < counts.size(); ++b) live_queries += counts[b] * b;
  const double scale =
      live_queries == 0
          ? 0.0
          : std::min(1.0, static_cast<double>(kReplayQueries) /
                              static_cast<double>(live_queries));
  std::vector<std::pair<size_t, uint64_t>> mix;
  for (size_t b = 1; b < counts.size(); ++b) {
    const uint64_t n = static_cast<uint64_t>(
        std::llround(static_cast<double>(counts[b]) * scale));
    if (n > 0) mix.push_back({b, n});
  }
  return mix;
}

// Guarded batch estimate plus interval inversion for every batch of the
// mix, as the worker runs them; then featurize and the bare LW-NN batch
// estimate at the same mix.
Replay ReplayServing(const Stack& s, const Workload& pool, size_t from,
                     const std::vector<std::pair<size_t, uint64_t>>& mix,
                     confcard::OnlineConformal* online, Tracer* tracer) {
  Replay rp;
  std::vector<Query> batch;
  std::vector<GuardedEstimate> ge;
  std::vector<double> est;
  std::vector<float> feats;
  confcard::GuardBatchScratch scratch;
  size_t cursor = from;
  auto fill = [&](size_t b) {
    batch.resize(b);
    for (size_t i = 0; i < b; ++i) {
      batch[i] = pool[cursor].query;
      if (++cursor == pool.size()) cursor = from;
    }
  };
  double weighted_ns = 0.0;
  for (const auto& [b, n] : mix) {
    ge.resize(b);
    for (uint64_t k = 0; k < n; ++k) {
      fill(b);
      const int64_t t0 = ToNs(Clock::now());
      {
        ScopedSpan batch_span(tracer, "serve.replay_batch");
        {
          ScopedSpan span(tracer, "ce.guard.estimate_batch");
          s.guard->EstimateBatchGuarded(batch.data(), b, ge.data(), 0,
                                        &scratch);
        }
        ScopedSpan span(tracer, "conformal.predict");
        for (size_t i = 0; i < b; ++i) {
          const Interval iv = online != nullptr
                                  ? online->Predict(ge[i].value)
                                  : s.scp->Predict(ge[i].value);
          rp.checksum += ClipToCardinality(iv, s.num_rows).hi;
        }
      }
      weighted_ns += static_cast<double>(ToNs(Clock::now()) - t0) *
                     static_cast<double>(b);
      rp.queries += b;
    }
  }
  rp.batch_ns_per_request =
      rp.queries == 0 ? 0.0 : weighted_ns / static_cast<double>(rp.queries);

  feats.resize(s.lwnn->Features(pool[from].query).size());
  for (const auto& [b, n] : mix) {
    est.resize(b);
    for (uint64_t k = 0; k < n; ++k) {
      fill(b);
      {
        ScopedSpan span(tracer, "ce.lwnn.features");
        for (size_t i = 0; i < b; ++i) s.lwnn->FeaturesInto(batch[i], feats.data());
      }
      ScopedSpan span(tracer, "ce.lwnn.estimate_batch");
      s.lwnn->EstimateBatch(batch.data(), b, est.data());
    }
  }
  return rp;
}

// The per-observation feedback work the worker does, replayed for
// `count` observations of the post-onset stream: a batch-of-one guarded
// re-estimate, the residual corrector and the windowed recalibrator.
void ReplayFeedback(const Stack& s, const Workload& pool, size_t from,
                    uint64_t count, confcard::OnlineConformal* online,
                    Tracer* tracer) {
  confcard::ResidualCorrector corrector;
  confcard::GuardBatchScratch scratch;
  GuardedEstimate ge;
  size_t cursor = from;
  for (uint64_t k = 0; k < count; ++k) {
    const confcard::LabeledQuery& lq = pool[cursor];
    if (++cursor == pool.size()) cursor = from;
    ScopedSpan obs_span(tracer, "serve.replay_feedback");
    {
      ScopedSpan span(tracer, "ce.guard.single");
      s.guard->EstimateBatchGuarded(&lq.query, 1, &ge, 0, &scratch);
    }
    const uint64_t fss = confcard::ResidualCorrector::SubspaceHash(lq.query);
    double served;
    {
      ScopedSpan span(tracer, "ce.residual.correct");
      served = corrector.Correct(fss, ge.value);
    }
    {
      ScopedSpan span(tracer, "ce.residual.observe");
      corrector.Observe(fss, ge.value, lq.cardinality);
    }
    ScopedSpan span(tracer, "conformal.online.observe");
    online->Observe(served, lq.cardinality);
  }
}

double PerQueryNs(const Tracer& tracer, const char* name, uint64_t queries) {
  const auto self = tracer.SelfByName();
  const auto it = self.find(name);
  if (it == self.end() || queries == 0) return 0.0;
  return static_cast<double>(it->second.second) / static_cast<double>(queries);
}

void SetupMetrics(const Stack& s, double setup_s, Result* result) {
  result->metrics["setup_s"] = setup_s;
  result->metrics["data.table_s"] = s.table_s;
  result->metrics["data.drift_stream_s"] = s.drift_stream_s;
  result->metrics["query.label_s"] = s.label_s;
  result->metrics["ce.lwnn.train_s"] = s.train_s;
  result->metrics["conformal.calibrate_us"] = s.calibrate_us;
}

// A windowed recalibrator like each feedback shard's, warmed on the
// calibration split, for the drift replay.
std::unique_ptr<confcard::OnlineConformal> ReplayRecalibrator(
    const Settings& st, const Stack& s) {
  confcard::OnlineConformal::Options oo;
  oo.alpha = st.alpha;
  oo.window = kOnlineWindow;
  oo.publish_metrics = false;
  auto online = std::make_unique<confcard::OnlineConformal>(
      confcard::MakeScoring(confcard::ScoreKind::kQError), oo);
  std::vector<double> est(s.calib.size());
  std::vector<double> truth;
  std::vector<Query> q;
  for (const auto& lq : s.calib) {
    q.push_back(lq.query);
    truth.push_back(lq.cardinality);
  }
  s.lwnn->EstimateBatch(q.data(), q.size(), est.data());
  CONFCARD_CHECK(online->Warmup(est, truth).ok());
  return online;
}

// The traced run: an untraced reference half, then a traced half, then
// the replays. Fills the per-layer metrics; `live` ends up with both
// halves' outcomes for the output checks.
void MeasureTraced(const Settings& st, double rate, bool drift, Serving& sv,
                   Live* live, Result* result) {
  const Stack& s = *sv.stack;
  Driver& driver = *sv.driver;
  driver.OpenLoop(rate, SubSeed(st.seed, 10), st.seconds * 0.5, live, nullptr);
  const double p50_untraced = WindowedUs(*live, 0.50);
  result->metrics["serve.tail_us.p90"] = WindowedUs(*live, 0.90);
  result->metrics["serve.tail_us.p99"] = live->latency_ns.Quantile(0.99) / 1e3;
  result->metrics["serve.tail_us.p999"] =
      live->latency_ns.Quantile(0.999) / 1e3;
  result->metrics["serve.samples"] =
      static_cast<double>(live->latency_ns.count());

  Tracer tracer(kTraceCapacity);
  auto traced = std::make_unique<Live>();
  sv.front->ResetStats();
  const uint64_t applied0 = CounterValue("feedback.applied");
  const uint64_t observed0 = CounterValue("feedback.observed");
  const uint64_t dropped0 = CounterValue("feedback.dropped");
  const uint64_t transitions0 = CounterValue("serve.drift.transitions.up") +
                                CounterValue("serve.drift.transitions.down");
  driver.OpenLoop(rate, SubSeed(st.seed, 11), st.seconds * 0.5,
                  traced.get(), &tracer);
  sv.front->Stop();
  const std::vector<uint64_t> counts = sv.front->BatchSizeCounts();
  const uint64_t applied = CounterValue("feedback.applied") - applied0;
  const uint64_t observed = CounterValue("feedback.observed") - observed0;

  const Live& t = *traced;
  const double p50_traced = WindowedUs(t, 0.50);
  auto& m = result->metrics;
  m["obs.trace_overhead_frac"] = p50_traced / p50_untraced - 1.0;
  m["serve.queue_us.p50"] = t.queue_ns.Quantile(0.50) / 1e3;
  m["serve.queue_us.p90"] = t.queue_ns.Quantile(0.90) / 1e3;
  m["serve.service_us.p50"] = t.service_ns.Quantile(0.50) / 1e3;
  m["serve.service_us.p90"] = t.service_ns.Quantile(0.90) / 1e3;
  m["serve.submit_ns.p50"] = t.submit_ns.Quantile(0.50);
  m["serve.submit_ns.p99"] = t.submit_ns.Quantile(0.99);
  m["serve.shed.queue_full"] =
      static_cast<double>(live->all.shed_queue_full + t.all.shed_queue_full);
  m["serve.shed.breaker"] =
      static_cast<double>(live->all.shed_breaker + t.all.shed_breaker);
  m["loadgen.late_us.p50"] = t.late_ns.Quantile(0.50) / 1e3;
  m["loadgen.late_us.p99"] = t.late_ns.Quantile(0.99) / 1e3;
  m["loadgen.slot_waits"] =
      static_cast<double>(live->slot_waits + t.slot_waits);
  uint64_t batches = 0;
  uint64_t batched = 0;
  for (size_t b = 1; b < counts.size(); ++b) {
    batches += counts[b];
    batched += counts[b] * b;
  }
  m["serve.batches"] = static_cast<double>(batches);
  m["serve.batch_size.mean"] =
      batches == 0 ? 0.0
                   : static_cast<double>(batched) / static_cast<double>(batches);

  // The recalibrator the drift replay predicts with and observes into.
  std::unique_ptr<confcard::OnlineConformal> online;
  if (drift) online = ReplayRecalibrator(st, s);
  const Workload& pool = sv.cycle;
  const Replay rp = ReplayServing(s, pool, sv.onset, ReplayMix(counts),
                                  online.get(), &tracer);
  m["ce.guard.batch_ns_per_query"] =
      PerQueryNs(tracer, "ce.guard.estimate_batch", rp.queries);
  m["conformal.predict_ns"] =
      PerQueryNs(tracer, "conformal.predict", rp.queries);
  m["ce.lwnn.featurize_ns_per_query"] =
      PerQueryNs(tracer, "ce.lwnn.features", rp.queries);
  m["ce.lwnn.estimate_ns_per_query"] =
      PerQueryNs(tracer, "ce.lwnn.estimate_batch", rp.queries);
  m["serve.unattributed_us"] =
      t.service_ns.Mean() / 1e3 - rp.batch_ns_per_request / 1e3;
  result->Check(std::isfinite(rp.checksum), "replayed intervals not finite");

  if (drift) {
    const uint64_t n = std::min<uint64_t>(applied, kReplayObservations);
    ReplayFeedback(s, pool, sv.onset, n, online.get(), &tracer);
    m["ce.guard.single_ns"] = PerQueryNs(tracer, "ce.guard.single", n);
    m["ce.residual.correct_ns"] = PerQueryNs(tracer, "ce.residual.correct", n);
    m["ce.residual.observe_ns"] = PerQueryNs(tracer, "ce.residual.observe", n);
    m["conformal.online.observe_ns"] =
        PerQueryNs(tracer, "conformal.online.observe", n);
    m["serve.observe_ns.p50"] = t.observe_ns.Quantile(0.50);
    m["serve.observe_ns.p99"] = t.observe_ns.Quantile(0.99);
    m["serve.feedback.applied_frac"] =
        observed == 0 ? 0.0
                      : static_cast<double>(applied) /
                            static_cast<double>(observed);
    m["serve.feedback.dropped"] =
        static_cast<double>(CounterValue("feedback.dropped") - dropped0);
    m["serve.drift.max_stage"] = std::max(live->max_stage, t.max_stage);
    m["serve.drift.transitions"] = static_cast<double>(
        CounterValue("serve.drift.transitions.up") +
        CounterValue("serve.drift.transitions.down") - transitions0);
  }
  result->Check(tracer.dropped() == 0, "the span store overflowed");
  if (!tracer.Write(st.trace_path)) {
    std::fprintf(stderr, "trace file %s not written\n", st.trace_path.c_str());
  }
  live->all.Merge(t.all);
  live->post.Merge(t.post);
  live->mismatches += t.mismatches;
}

void RunServing(const Settings& st, double rate, bool drift, Result* result) {
  confcard::SetThreads(st.serve_threads);
  double setup_s = 0.0;
  const std::unique_ptr<Serving> owned = SetUp(st, drift, &setup_s);
  Serving& sv = *owned;
  const Stack& s = *sv.stack;
  Driver& driver = *sv.driver;
  auto live = std::make_unique<Live>();

  if (!st.trace) {
    // Warm closed loop first, then the open loop; coverage and width
    // come from the open loop on drift_feedback (post-onset requests).
    auto closed = std::make_unique<Live>();
    sv.CapacityDriver().ClosedLoop(st.closed_loop_outstanding,
                                   st.seconds * 0.5, closed.get());
    driver.OpenLoop(rate, SubSeed(st.seed, 10), st.seconds * 0.5, live.get(),
                    nullptr);
    sv.front->Stop();
    live->all.Merge(closed->all);
    live->mismatches += closed->mismatches;
    result->Check(closed->threads == 2,
                  "the closed loop ran with " +
                      std::to_string(closed->threads) +
                      " threads, not the generator and one worker");
    const Tally& cov = drift ? live->post : live->all;
    result->metrics["p50_us"] = WindowedUs(*live, 0.50);
    result->metrics["capacity_qps"] =
        QuantileOf(closed->cpu_qps, kCapacityQuantile);
    result->diagnostics["p90_us"] = WindowedUs(*live, 0.90);
    result->diagnostics["capacity_median_qps"] = Median(closed->cpu_qps);
    result->diagnostics["capacity_wall_qps"] = Median(closed->wall_qps);
    result->diagnostics["loadgen_slot_waits"] =
        static_cast<double>(live->slot_waits);
    result->metrics["answered_frac"] = live->all.AnsweredFrac();
    result->metrics["coverage"] = cov.Coverage();
    result->metrics["width"] = cov.Width();
  } else {
    MeasureTraced(st, rate, drift, sv, live.get(), result);
  }

  SetupMetrics(s, setup_s, result);
  result->metrics["peak_rss_mb"] = PeakRssMb();
  result->attempted = live->all.attempted;
  result->failed = live->all.failed();

  if (drift) {
    // Post-onset coverage within 4 binomial standard errors of 1 - alpha,
    // counting each distinct post-onset query once.
    const double n = static_cast<double>(sv.cycle.size() - sv.onset);
    const double tol = 4.0 * std::sqrt(st.alpha * (1.0 - st.alpha) / n);
    const double cov = live->post.Coverage();
    result->Check(std::fabs(cov - (1.0 - st.alpha)) <= tol,
                  "post-onset coverage " + std::to_string(cov) +
                      " is not within " + std::to_string(tol) + " of " +
                      std::to_string(1.0 - st.alpha));
  } else {
    result->Check(live->mismatches == 0,
                  std::to_string(live->mismatches) +
                      " answers differ from EstimateGuarded + Predict + Clip");
    result->Check(live->all.degraded == 0,
                  std::to_string(live->all.degraded) +
                      " degraded answers with no faults armed");
  }
  result->Check(live->all.answered > 0, "no request was answered");
}

}  // namespace

void RunServeOpen(const Settings& settings, double rate, Result* result) {
  RunServing(settings, rate, /*drift=*/false, result);
}

void RunDriftFeedback(const Settings& settings, Result* result) {
  RunServing(settings, settings.rate_mid, /*drift=*/true, result);
}

}  // namespace perfbench
