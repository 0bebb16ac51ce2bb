// Drift-robustness bench: replays deterministic CONFCARD_DRIFT scenarios
// through the serving front-end and measures whether the self-healing
// loop (online feedback -> sliding-window recalibration -> residual
// correction -> staged degradation) actually restores coverage after the
// data shifts under it (writes BENCH_drift.json).
//
// Gated contracts plus a severity sweep:
//   1. Replay bit-identity: the closed-loop feedback run over a fixed
//      drift stream produces byte-identical responses (estimate, lo, hi,
//      degraded, source) when repeated, at 1 shard and at 4 shards
//      (CONFCARD_CHECKed at any scale).
//   2. Zero-alloc serve+feedback hot path: after warmup, worker batch
//      cycles (including feedback application and recalibration) and the
//      producer-side Observe() path allocate nothing (CONFCARD_CHECKed).
//   3. Self-healing: at full scale, the severity-1 scenario's rolling
//      coverage recovers to within 1pp of nominal with feedback enabled,
//      and stays collapsed (>= 5pp below nominal at stream end) with the
//      loop disabled (CONFCARD_CHECKed when the stream is long enough;
//      skipped with an explicit skip_reason at smoke scale).
//   4. Open-loop: each severity also runs under Poisson load (report
//      only — wall-clock timing decides batch shapes, so dips/recovery
//      under load are recorded but never gated).
//
// The artifact leads with a `config` block (drift grammar, seeds,
// feedback configuration) so every run is attributable and replayable.
//
// The sweep serves one shard with the front-end's default batching
// (B = 32, T = 200 us). Rolling coverage is over answered responses
// only: a shed request's [0, N] placeholder is not an answer.
// CONFCARD_DRIFT overrides the severity-1 scenario's spec.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "ce/guarded.h"
#include "ce/lwnn.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "conformal/interval.h"
#include "conformal/scoring.h"
#include "conformal/split.h"
#include "data/drift.h"
#include "obs/profiler.h"
#include "serve/serve.h"

namespace confcard {
namespace {

using SteadyClock = std::chrono::steady_clock;
using serve::Admit;
using serve::DriftStage;
using serve::Request;
using serve::ServeFrontEnd;

constexpr double kAlpha = 0.1;
constexpr double kNominal = 1.0 - kAlpha;
constexpr size_t kRollingWindow = 256;
constexpr double kRecoveredWithin = 0.01;  // "within 1pp of nominal"
constexpr double kCollapseMargin = 0.05;

// ------------------------------------------------------------------
// Scenario construction: one base table spec, drift arms scaled by a
// severity knob.
// ------------------------------------------------------------------

TableSpec BaseSpec() {
  TableSpec spec;
  spec.name = "drift_base";
  spec.num_rows = bench::DefaultRows();
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

std::vector<drift::DriftSpec> SpecsForSeverity(double severity) {
  // Data churn + distribution shift + workload shift, all scaled by one
  // severity knob; onset at 40% leaves room to recover.
  std::vector<drift::DriftSpec> specs;
  specs.push_back({drift::DriftKind::kUpdate, severity, 0.4});
  specs.push_back({drift::DriftKind::kZipf, severity, 0.4});
  specs.push_back({drift::DriftKind::kTemplate, 0.5 * severity, 0.4});
  return specs;
}

struct Scenario {
  double severity = 0.0;
  std::vector<drift::DriftSpec> specs;
  drift::DriftStream stream;
};

Scenario BuildScenario(double severity, size_t num_queries) {
  std::vector<drift::DriftSpec> specs = SpecsForSeverity(severity);
  // The severity-1 scenario honours a CONFCARD_DRIFT override so the
  // bench doubles as a replay harness for arbitrary specs.
  if (severity >= 1.0) {
    std::vector<drift::DriftSpec> env = drift::DriftSpecsFromEnv();
    if (!env.empty()) specs = std::move(env);
  }
  drift::DriftStreamOptions so;
  so.num_queries = num_queries;
  so.workload.max_selectivity = 0.2;
  so.seed = 21;
  drift::DriftStream stream =
      drift::GenerateDriftStream(BaseSpec(), so, specs).value();
  return Scenario{severity, std::move(specs), std::move(stream)};
}

// ------------------------------------------------------------------
// Serving stack (mirrors bench_serving: identically-trained replicas,
// SplitConformal calibrated on replica 0's healthy batched estimates).
// ------------------------------------------------------------------

struct Stack {
  bench::Splits splits;
  std::vector<std::unique_ptr<LwnnEstimator>> replicas;
  std::vector<std::unique_ptr<GuardedEstimator>> guards;
  std::vector<const GuardedEstimator*> shard_guards;
  std::unique_ptr<SplitConformal> scp;
  double num_rows = 0.0;
};

Stack BuildStack(const Table& pre_table, int shards) {
  Stack s;
  s.splits = bench::MakeSplits(pre_table);
  s.num_rows = static_cast<double>(pre_table.num_rows());
  for (int i = 0; i < shards; ++i) {
    auto model = std::make_unique<LwnnEstimator>(bench::LwnnDefaults());
    CONFCARD_CHECK(model->Train(pre_table, s.splits.train).ok());
    s.guards.push_back(std::make_unique<GuardedEstimator>(*model, pre_table));
    s.shard_guards.push_back(s.guards.back().get());
    s.replicas.push_back(std::move(model));
  }
  std::vector<Query> calib_q;
  std::vector<double> truths;
  for (const LabeledQuery& lq : s.splits.calib) {
    calib_q.push_back(lq.query);
    truths.push_back(lq.cardinality);
  }
  std::vector<double> estimates(calib_q.size());
  s.replicas[0]->EstimateBatch(calib_q.data(), calib_q.size(),
                               estimates.data());
  s.scp =
      std::make_unique<SplitConformal>(MakeScoring(ScoreKind::kQError), kAlpha);
  CONFCARD_CHECK(s.scp->Calibrate(estimates, truths).ok());
  return s;
}

ServeFrontEnd::Options FrontOptions(bool feedback, size_t feedback_capacity) {
  ServeFrontEnd::Options o;
  o.feedback = feedback;
  o.feedback_capacity = feedback_capacity;
  return o;
}

// ------------------------------------------------------------------
// Closed-loop drift replay: submit -> wait -> Observe, one query at a
// time, so feedback application points are a pure function of the
// stream and the run is bit-identical on replay.
// ------------------------------------------------------------------

struct Rec {
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool degraded = false;
  bool shed = false;
  int source = 0;
  int stage = 0;

  bool operator==(const Rec& other) const {
    return estimate == other.estimate && lo == other.lo && hi == other.hi &&
           degraded == other.degraded && shed == other.shed &&
           source == other.source && stage == other.stage;
  }
};

std::vector<Rec> RunClosedLoop(const Stack& stack, const Workload& stream,
                               bool feedback) {
  ServeFrontEnd front(stack.shard_guards, *stack.scp, stack.num_rows,
                      FrontOptions(feedback, /*feedback_capacity=*/1024));
  if (feedback) front.WarmupFeedback(stack.splits.calib);
  std::vector<Rec> recs;
  recs.reserve(stream.size());
  Request r;
  for (const LabeledQuery& lq : stream) {
    r.Reset();
    r.query = lq.query;
    front.Submit(&r);  // closed loop: shed publishes immediately
    r.Wait();
    const serve::Response& resp = r.response;
    recs.push_back({resp.estimate, resp.lo, resp.hi, resp.degraded, resp.shed,
                    resp.source,
                    static_cast<int>(front.ShardStage(resp.shard))});
    if (feedback) front.Observe(lq.query, lq.cardinality);
  }
  front.Stop();
  return recs;
}

// ------------------------------------------------------------------
// Trajectory analysis over a response sequence.
// ------------------------------------------------------------------

struct Trajectory {
  double pre_coverage = 0.0;   // rolling coverage just before onset
  double dip = 1.0;            // min rolling coverage at/after onset
  size_t dip_index = 0;
  long recovery_queries = -1;  // onset -> first recovered index (-1: never)
  double final_coverage = 0.0;
  int max_stage = 0;
  double shed_fraction = 0.0;
};

// Coverage over the last kRollingWindow answered responses; shed
// responses are skipped, so their [0, N] placeholders never count.
class RollingCoverage {
 public:
  void Add(const Rec& rec, double truth) {
    if (rec.shed) return;
    const int covered = (rec.lo <= truth && truth <= rec.hi) ? 1 : 0;
    window_.push_back(covered);
    sum_ += covered;
    if (window_.size() > kRollingWindow) {
      sum_ -= window_.front();
      window_.pop_front();
    }
  }
  bool empty() const { return window_.empty(); }
  double value() const {
    return window_.empty() ? 0.0
                           : sum_ / static_cast<double>(window_.size());
  }

 private:
  std::deque<int> window_;
  double sum_ = 0.0;
};

Trajectory Analyze(const std::vector<Rec>& recs, const Workload& stream,
                   size_t onset_index) {
  Trajectory t;
  RollingCoverage rolling;
  size_t shed = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    rolling.Add(recs[i], stream[i].cardinality);
    if (i + 1 == onset_index) t.pre_coverage = rolling.value();
    if (i >= onset_index && !rolling.empty()) {
      if (rolling.value() < t.dip) {
        t.dip = rolling.value();
        t.dip_index = i;
      }
    }
    if (recs[i].shed) ++shed;
    t.max_stage = std::max(t.max_stage, recs[i].stage);
  }
  // Recovery: first index after the dip where the rolling window has
  // fully turned over since the dip AND coverage is back within 1pp of
  // nominal (a window still dominated by pre-dip hits is not recovery).
  RollingCoverage rewindow;
  for (size_t i = 0; i < recs.size(); ++i) {
    rewindow.Add(recs[i], stream[i].cardinality);
    if (t.recovery_queries < 0 && i >= t.dip_index + kRollingWindow &&
        !rewindow.empty() &&
        rewindow.value() >= kNominal - kRecoveredWithin) {
      t.recovery_queries = static_cast<long>(i - onset_index);
    }
  }
  t.final_coverage = rolling.value();
  t.shed_fraction = recs.empty() ? 0.0
                                 : static_cast<double>(shed) /
                                       static_cast<double>(recs.size());
  return t;
}

// ------------------------------------------------------------------
// Zero-alloc gate: steady-state serve + feedback cycles allocate
// nothing, on the worker side (batch cycle incl. feedback application)
// and the producer side (Submit + Observe).
// ------------------------------------------------------------------

struct AllocResult {
  uint64_t worker_allocs = 0;
  uint64_t producer_allocs = 0;
  int passes = 0;
  bool passed = false;
};

AllocResult MeasureFeedbackAllocs(const Stack& stack, const Workload& stream) {
  ServeFrontEnd front(stack.shard_guards, *stack.scp, stack.num_rows,
                      FrontOptions(/*feedback=*/true,
                                   /*feedback_capacity=*/1024));
  front.WarmupFeedback(stack.splits.calib);
  const size_t n = std::min<size_t>(stream.size(), 128);
  const size_t group = std::min<size_t>(
      static_cast<size_t>(front.options().max_batch), 8);
  std::deque<Request> requests(n);
  AllocResult result;
  constexpr int kMaxPasses = 20;
  for (result.passes = 1; result.passes <= kMaxPasses; ++result.passes) {
    front.ResetStats();
    uint64_t producer = 0;
    for (size_t base = 0; base < n; base += group) {
      const size_t m = std::min(group, n - base);
      for (size_t i = 0; i < m; ++i) {
        Request& r = requests[base + i];
        r.Reset();
        r.query = stream[base + i].query;
        const uint64_t before = obs::prof::ThreadAllocCount();
        while (front.Submit(&r) != Admit::kAccepted) {
          std::this_thread::yield();
        }
        producer += obs::prof::ThreadAllocCount() - before;
      }
      for (size_t i = 0; i < m; ++i) requests[base + i].Wait();
      for (size_t i = 0; i < m; ++i) {
        const uint64_t before = obs::prof::ThreadAllocCount();
        front.Observe(requests[base + i].query,
                      stream[base + i].cardinality);
        producer += obs::prof::ThreadAllocCount() - before;
      }
    }
    result.worker_allocs = front.HotPathAllocs();
    result.producer_allocs = producer;
    if (result.worker_allocs == 0 && result.producer_allocs == 0) break;
  }
  front.Stop();
  result.passed = result.worker_allocs == 0 && result.producer_allocs == 0;
  std::printf(
      "feedback hot-path allocs: worker=%llu producer=%llu after %d "
      "pass(es) (%s)\n",
      static_cast<unsigned long long>(result.worker_allocs),
      static_cast<unsigned long long>(result.producer_allocs), result.passes,
      result.passed ? "pass" : "FAIL");
  return result;
}

// ------------------------------------------------------------------
// Open-loop drift level (report only): Poisson arrivals over the drift
// stream; completed requests are Observed in stream order without
// blocking the arrival schedule.
// ------------------------------------------------------------------

struct OpenLoopResult {
  double offered_qps = 0.0;
  Trajectory trajectory;
};

OpenLoopResult RunOpenLoopDrift(const Stack& stack, const Scenario& sc,
                                double offered_qps, uint64_t seed) {
  const Workload& stream = sc.stream.stream;
  // Capacity >= stream length: feedback is never dropped, so the
  // adaptive trajectory stays a function of the Observe order alone.
  ServeFrontEnd front(stack.shard_guards, *stack.scp, stack.num_rows,
                      FrontOptions(/*feedback=*/true, stream.size()));
  front.WarmupFeedback(stack.splits.calib);
  std::deque<Request> requests(stream.size());
  Rng rng(seed);
  const SteadyClock::time_point start = SteadyClock::now();
  double arrival_us = 0.0;
  size_t obs_cursor = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    arrival_us += -std::log1p(-rng.NextDouble()) * 1e6 / offered_qps;
    std::this_thread::sleep_until(
        start + std::chrono::microseconds(static_cast<int64_t>(arrival_us)));
    requests[i].query = stream[i].query;
    front.Submit(&requests[i]);
    while (obs_cursor < i && requests[obs_cursor].done()) {
      front.Observe(stream[obs_cursor].query, stream[obs_cursor].cardinality);
      ++obs_cursor;
    }
  }
  for (; obs_cursor < stream.size(); ++obs_cursor) {
    requests[obs_cursor].Wait();
    front.Observe(stream[obs_cursor].query, stream[obs_cursor].cardinality);
  }
  std::vector<Rec> recs;
  recs.reserve(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    const serve::Response& resp = requests[i].response;
    recs.push_back({resp.estimate, resp.lo, resp.hi, resp.degraded, resp.shed,
                    resp.source,
                    static_cast<int>(front.ShardStage(
                        resp.shard >= 0 ? resp.shard : 0))});
  }
  front.Stop();
  OpenLoopResult r;
  r.offered_qps = offered_qps;
  r.trajectory = Analyze(recs, stream, sc.stream.onset_index);
  return r;
}

double ProbeCapacity(const Stack& stack) {
  ServeFrontEnd front(stack.shard_guards, *stack.scp, stack.num_rows,
                      FrontOptions(/*feedback=*/true,
                                   /*feedback_capacity=*/1024));
  front.WarmupFeedback(stack.splits.calib);
  const size_t n = bench::Scaled(4000, 400);
  std::deque<Request> requests(n);
  const Workload& pool = stack.splits.test;
  Stopwatch watch;
  for (size_t i = 0; i < n; ++i) {
    Request& r = requests[i];
    r.query = pool[i % pool.size()].query;
    while (front.Submit(&r) != Admit::kAccepted) std::this_thread::yield();
  }
  for (Request& r : requests) r.Wait();
  const double qps = static_cast<double>(n) / (watch.ElapsedMillis() / 1000.0);
  front.Stop();
  return qps;
}

void WriteTrajectory(obs::JsonWriter* w, const Trajectory& t) {
  w->BeginObject();
  w->Key("pre_coverage").Number(t.pre_coverage);
  w->Key("dip").Number(t.dip);
  w->Key("dip_index").Int(static_cast<uint64_t>(t.dip_index));
  w->Key("recovery_queries").Number(static_cast<double>(t.recovery_queries));
  w->Key("final_coverage").Number(t.final_coverage);
  w->Key("max_stage").Int(static_cast<uint64_t>(t.max_stage));
  w->Key("shed_fraction").Number(t.shed_fraction);
  w->EndObject();
}

int Main() {
  bench::PrintScaleNote();
  const ServeFrontEnd::Options opts;
  const size_t stream_len = bench::Scaled(6000, 900);
  const double severities[] = {0.3, 0.6, 1.0};
  std::printf("shards=1  B=%d  T=%dus  stream=%zu\n", opts.max_batch,
              opts.flush_timeout_us, stream_len);

  std::vector<Scenario> scenarios;
  for (const double s : severities) {
    scenarios.push_back(BuildScenario(s, stream_len));
  }
  // All scenarios share the base spec, so the pre-drift table (and the
  // stack trained on it) is common.
  Stack stack = BuildStack(scenarios[0].stream.pre_table, /*shards=*/1);

  // ---- gate 2: zero-alloc serve+feedback hot path (pre-drift segment).
  const AllocResult allocs =
      MeasureFeedbackAllocs(stack, scenarios[0].stream.stream);

  // ---- severity sweep, closed loop, feedback on vs off.
  struct SweepRow {
    double severity = 0.0;
    std::string spec;
    Trajectory on;
    Trajectory off;
  };
  std::vector<SweepRow> sweep;
  for (const Scenario& sc : scenarios) {
    SweepRow row;
    row.severity = sc.severity;
    row.spec = drift::RenderDriftSpecs(sc.specs);
    const std::vector<Rec> on =
        RunClosedLoop(stack, sc.stream.stream, /*feedback=*/true);
    const std::vector<Rec> off =
        RunClosedLoop(stack, sc.stream.stream, /*feedback=*/false);
    row.on = Analyze(on, sc.stream.stream, sc.stream.onset_index);
    row.off = Analyze(off, sc.stream.stream, sc.stream.onset_index);
    std::printf(
        "severity %.1f (%s): feedback ON  dip %.3f recovery %+ld final %.3f "
        "max_stage %d | OFF dip %.3f final %.3f\n",
        sc.severity, row.spec.c_str(), row.on.dip, row.on.recovery_queries,
        row.on.final_coverage, row.on.max_stage, row.off.dip,
        row.off.final_coverage);
    sweep.push_back(std::move(row));
  }

  // ---- gate 1: replay bit-identity at 1 and at 4 shards.
  const Scenario& worst = scenarios.back();
  bool replay1 = false;
  bool replay4 = false;
  {
    Stack s1 = BuildStack(worst.stream.pre_table, 1);
    replay1 = RunClosedLoop(s1, worst.stream.stream, true) ==
              RunClosedLoop(s1, worst.stream.stream, true);
    Stack s4 = BuildStack(worst.stream.pre_table, 4);
    replay4 = RunClosedLoop(s4, worst.stream.stream, true) ==
              RunClosedLoop(s4, worst.stream.stream, true);
  }
  std::printf("replay identity: 1 shard %s, 4 shards %s\n",
              replay1 ? "pass" : "FAIL", replay4 ? "pass" : "FAIL");

  // ---- open-loop levels (report only).
  const double capacity_qps = ProbeCapacity(stack);
  const uint64_t poisson_seed = 131;
  std::vector<OpenLoopResult> open_levels;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const double rate = std::max(1.0, capacity_qps * 0.6);
    open_levels.push_back(
        RunOpenLoopDrift(stack, scenarios[i], rate, poisson_seed + i));
    const Trajectory& t = open_levels.back().trajectory;
    std::printf(
        "open-loop severity %.1f at %.0f qps: dip %.3f recovery %+ld "
        "final %.3f shed %.3f\n",
        scenarios[i].severity, rate, t.dip, t.recovery_queries,
        t.final_coverage, t.shed_fraction);
  }

  // ---- gate 3: self-healing, full scale only (the recovery horizon
  // needs a post-onset tail longer than the smoke stream provides).
  const SweepRow& worst_row = sweep.back();
  const size_t post_onset = stream_len - worst.stream.onset_index;
  const bool gates_applicable =
      bench::BenchScale() >= 1.0 && post_onset >= 4 * kRollingWindow;
  std::string skip_reason;
  if (!gates_applicable) {
    skip_reason = "post-onset tail of " + std::to_string(post_onset) +
                  " queries at scale " + std::to_string(bench::BenchScale()) +
                  " is too short for the " + std::to_string(kRollingWindow) +
                  "-query rolling window to dip and recover";
    std::printf("self-healing gate skipped: %s\n", skip_reason.c_str());
  } else {
    std::printf(
        "self-healing gate: feedback ON recovered=%s, feedback OFF "
        "collapsed=%s\n",
        worst_row.on.recovery_queries >= 0 ? "yes" : "NO",
        worst_row.off.final_coverage <= kNominal - kCollapseMargin ? "yes"
                                                                   : "NO");
  }

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("drift");
  w.Key("config").BeginObject();
  w.Key("scale").Number(bench::BenchScale());
  w.Key("shards").Int(1);
  w.Key("max_batch").Int(static_cast<uint64_t>(opts.max_batch));
  w.Key("flush_timeout_us").Int(static_cast<uint64_t>(opts.flush_timeout_us));
  w.Key("alpha").Number(kAlpha);
  w.Key("table_seed").Int(static_cast<uint64_t>(BaseSpec().seed));
  w.Key("table_rows").Int(static_cast<uint64_t>(BaseSpec().num_rows));
  w.Key("stream_seed").Int(21);
  w.Key("stream_queries").Int(static_cast<uint64_t>(stream_len));
  w.Key("poisson_seed").Int(poisson_seed);
  w.Key("rolling_window").Int(static_cast<uint64_t>(kRollingWindow));
  w.Key("feedback").BeginObject();
  {
    const ServeFrontEnd::Options fo = FrontOptions(true, 1024);
    w.Key("recal_window").Int(static_cast<uint64_t>(fo.recal_window));
    w.Key("monitor_window").Int(static_cast<uint64_t>(fo.monitor_window));
    w.Key("feedback_capacity")
        .Int(static_cast<uint64_t>(fo.feedback_capacity));
    w.Key("drift_inflation").Number(fo.drift_inflation);
    w.Key("degraded_inflation").Number(fo.degraded_inflation);
    w.Key("detector").BeginObject();
    w.Key("min_observations")
        .Int(static_cast<uint64_t>(fo.detector.min_observations));
    w.Key("recalibrate_dip").Number(fo.detector.recalibrate_dip);
    w.Key("inflate_dip").Number(fo.detector.inflate_dip);
    w.Key("fallback_dip").Number(fo.detector.fallback_dip);
    w.Key("breaker_dip").Number(fo.detector.breaker_dip);
    w.Key("recovery_hold").Int(static_cast<uint64_t>(fo.detector.recovery_hold));
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  w.Key("scenarios").BeginArray();
  for (const SweepRow& row : sweep) {
    w.BeginObject();
    w.Key("severity").Number(row.severity);
    w.Key("drift_spec").String(row.spec);
    w.Key("feedback_on");
    WriteTrajectory(&w, row.on);
    w.Key("feedback_off");
    WriteTrajectory(&w, row.off);
    w.EndObject();
  }
  w.EndArray();
  w.Key("open_loop").BeginArray();
  for (size_t i = 0; i < open_levels.size(); ++i) {
    w.BeginObject();
    w.Key("severity").Number(scenarios[i].severity);
    w.Key("offered_qps").Number(open_levels[i].offered_qps);
    w.Key("trajectory");
    WriteTrajectory(&w, open_levels[i].trajectory);
    w.EndObject();
  }
  w.EndArray();
  w.Key("replay").BeginObject();
  w.Key("shards1_identical").Bool(replay1);
  w.Key("shards4_identical").Bool(replay4);
  w.EndObject();
  w.Key("hot_path_allocs").BeginObject();
  w.Key("worker_allocs").Int(allocs.worker_allocs);
  w.Key("producer_allocs").Int(allocs.producer_allocs);
  w.Key("warmup_passes").Int(static_cast<uint64_t>(allocs.passes));
  w.Key("passed").Bool(allocs.passed);
  w.EndObject();
  w.Key("gates").BeginObject();
  w.Key("applicable").Bool(gates_applicable);
  w.Key("skip_reason").String(skip_reason);
  w.Key("recovered_with_feedback").Bool(worst_row.on.recovery_queries >= 0);
  w.Key("collapsed_without_feedback")
      .Bool(worst_row.off.final_coverage <= kNominal - kCollapseMargin);
  w.EndObject();
  w.EndObject();

  const char* path = "BENCH_drift.json";
  std::ofstream out(path, std::ios::binary);
  CONFCARD_CHECK_MSG(out.is_open(), "cannot write BENCH_drift.json");
  out << w.str() << "\n";
  std::printf("wrote %s\n", path);

  CONFCARD_CHECK_MSG(replay1,
                     "drift replay diverged at 1 shard (determinism broken)");
  CONFCARD_CHECK_MSG(replay4,
                     "drift replay diverged at 4 shards (determinism broken)");
  CONFCARD_CHECK_MSG(allocs.passed,
                     "serve+feedback hot path allocated after warmup");
  if (gates_applicable) {
    CONFCARD_CHECK_MSG(worst_row.on.recovery_queries >= 0,
                       "coverage did not recover to within 1pp of nominal "
                       "with feedback enabled");
    CONFCARD_CHECK_MSG(
        worst_row.off.final_coverage <= kNominal - kCollapseMargin,
        "coverage did not collapse with the feedback loop disabled — drift "
        "too mild to gate on");
  }
  return 0;
}

}  // namespace
}  // namespace confcard

int main() { return confcard::Main(); }
