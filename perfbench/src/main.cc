// Entry point of the benchmark binary:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --rates mid=<qps>,heavy=<qps>
//             --pi-rows <n> --pi-split <train>/<calib>/<test>
//             --trace-out <path>
//
// Workloads: serve_open (open loop at the heavy rate), drift_feedback (at
// the mid rate; runnable, but not among BENCHMARK.json's workloads) and
// pi_offline. Prints one line with the settings and host facts, one with
// ungated diagnostics, then, as the last line, {"correct", "attempted",
// "failed", "metrics"}: the end-to-end metrics when --trace is 0, the
// per-layer metrics when it is 1.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "nn/simd.h"
#include "serve/serve.h"

extern char** environ;

namespace perfbench {

confcard::Workload Label(const confcard::Table& table, size_t n,
                         uint64_t seed) {
  confcard::WorkloadConfig wc;
  wc.max_selectivity = 0.2;
  wc.num_queries = n;
  wc.seed = seed;
  auto w = confcard::GenerateWorkload(table, wc);
  if (!w.ok()) {
    std::fprintf(stderr, "perfbench: workload generation failed\n");
    std::exit(1);
  }
  return std::move(w).value();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks that they do.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"p50_us", "us"},
    {"capacity_qps", "req/s"},  {"answered_frac", "fraction"},
    {"coverage", "fraction"},   {"width", "fraction_of_N"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.queue_us.p50", "us"},
    {"serve.queue_us.p90", "us"},
    {"serve.service_us.p50", "us"},
    {"serve.service_us.p90", "us"},
    {"serve.batch_size.mean", "count"},
    {"serve.batches", "count"},
    {"serve.submit_ns.p50", "ns"},
    {"serve.submit_ns.p99", "ns"},
    {"serve.shed.queue_full", "count"},
    {"serve.shed.breaker", "count"},
    {"serve.observe_ns.p50", "ns"},
    {"serve.observe_ns.p99", "ns"},
    {"serve.feedback.applied_frac", "fraction"},
    {"serve.feedback.dropped", "count"},
    {"serve.drift.max_stage", "count"},
    {"serve.drift.transitions", "count"},
    {"serve.unattributed_us", "us"},
    {"serve.tail_us.p90", "us"},
    {"serve.tail_us.p99", "us"},
    {"serve.tail_us.p999", "us"},
    {"serve.samples", "count"},
    {"ce.guard.batch_ns_per_query", "ns"},
    {"ce.lwnn.featurize_ns_per_query", "ns"},
    {"ce.lwnn.estimate_ns_per_query", "ns"},
    {"ce.guard.single_ns", "ns"},
    {"ce.residual.correct_ns", "ns"},
    {"ce.residual.observe_ns", "ns"},
    {"ce.mscn.train_s", "s"},
    {"ce.naru.train_s", "s"},
    {"ce.lwnn.train_s", "s"},
    {"ce.mscn.estimate_us_per_query", "us"},
    {"ce.naru.estimate_us_per_query", "us"},
    {"ce.lwnn.estimate_us_per_query", "us"},
    {"nn.step_us.mscn", "us"},
    {"nn.matmul.gflops", "GFLOP/s"},
    {"nn.matmul_tb.gflops", "GFLOP/s"},
    {"nn.dense_fused.gflops", "GFLOP/s"},
    {"conformal.predict_ns", "ns"},
    {"conformal.online.observe_ns", "ns"},
    {"conformal.calibrate_us", "us"},
    {"harness.scp_s", "s"},
    {"harness.jkcv_s", "s"},
    {"harness.lwscp_s", "s"},
    {"harness.cqr_s", "s"},
    {"harness.cache_hit_frac", "fraction"},
    {"gbdt.fit_ms", "ms"},
    {"common.pool.busy_frac", "fraction"},
    {"common.pool.tasks", "count"},
    {"data.table_s", "s"},
    {"data.drift_stream_s", "s"},
    {"query.label_s", "s"},
    {"obs.trace_overhead_frac", "fraction"},
    {"loadgen.late_us.p50", "us"},
    {"loadgen.late_us.p99", "us"},
    {"loadgen.slot_waits", "count"},
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

double ParseNumber(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(v) || v < 0) {
    Usage("bad value for " + flag + ": '" + text + "'");
  }
  return v;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    out.push_back(s.substr(start, pos - start));
    if (pos == std::string::npos) return out;
    start = pos + 1;
  }
}

Settings Parse(int argc, char** argv) {
  Settings st;
  bool have[7] = {};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      st.workload = v;
      have[0] = true;
    } else if (flag == "--seed") {
      st.seed = static_cast<uint64_t>(ParseNumber(flag, v));
      have[1] = true;
    } else if (flag == "--seconds") {
      st.seconds = ParseNumber(flag, v);
      have[2] = true;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") Usage("--trace takes 0 or 1");
      st.trace = v == "1";
      have[3] = true;
    } else if (flag == "--rates") {
      for (const std::string& kv : Split(v, ',')) {
        const std::vector<std::string> p = Split(kv, '=');
        if (p.size() != 2) Usage("bad --rates entry '" + kv + "'");
        const double r = ParseNumber(flag, p[1]);
        if (p[0] == "mid") st.rate_mid = r;
        else if (p[0] == "heavy") st.rate_heavy = r;
        else Usage("unknown rate '" + p[0] + "'");
      }
      have[4] = st.rate_mid > 0 && st.rate_heavy > 0;
    } else if (flag == "--pi-rows") {
      st.pi_rows = static_cast<size_t>(ParseNumber(flag, v));
      have[5] = st.pi_rows > 0;
    } else if (flag == "--pi-split") {
      const std::vector<std::string> p = Split(v, '/');
      if (p.size() != 3) Usage("--pi-split takes train/calib/test");
      st.pi_train = static_cast<size_t>(ParseNumber(flag, p[0]));
      st.pi_calib = static_cast<size_t>(ParseNumber(flag, p[1]));
      st.pi_test = static_cast<size_t>(ParseNumber(flag, p[2]));
      have[6] = st.pi_train > 0 && st.pi_calib > 0 && st.pi_test > 0;
    } else if (flag == "--trace-out") {
      st.trace_path = v;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  const char* names[7] = {"--workload", "--seed",    "--seconds", "--trace",
                          "--rates",    "--pi-rows", "--pi-split"};
  for (int i = 0; i < 7; ++i) {
    if (!have[i]) Usage(std::string("missing or empty ") + names[i]);
  }
  if (st.seconds <= 0) Usage("--seconds must be positive");
  if (st.trace && st.trace_path.empty()) Usage("--trace 1 needs --trace-out");
  // The serving workers and generator take the last two CPUs the process
  // may use; with fewer than two they stay unpinned.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.size() >= 2) {
      st.worker_cpu = cpus[cpus.size() - 1];
      st.generator_cpu = cpus[cpus.size() - 2];
    }
  }
  return st;
}

// Every CONFCARD_* variable changes the program under test (scale,
// threads, SIMD, arena, faults, drift, serving options) or adds tracing
// and artifacts to it, so the benchmark refuses to run with any set.
void RefuseProgramEnvironment() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "CONFCARD_", 9) == 0) {
      Usage(std::string("refusing to run with ") + *e +
            " set: the benchmark passes every program setting itself");
    }
  }
}

void PrintConfig(const Settings& st) {
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  const confcard::serve::ServeFrontEnd::Options fe;  // the serving defaults
  std::printf(
      "{\"config\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"rates\":{\"mid\":%g,\"heavy\":%g},"
      "\"serve\":{\"rows\":%zu,\"train\":%zu,\"calib\":%zu,\"test\":%zu,"
      "\"drift_queries\":%zu,\"drift_spec\":\"%s\",\"threads\":%d,"
      "\"shards\":1,\"max_batch\":%d,\"flush_timeout_us\":%d,"
      "\"queue_capacity\":%zu,\"closed_loop_outstanding\":%zu,"
      "\"worker_cpu\":%d,\"generator_cpu\":%d},"
      "\"pi\":{\"rows\":%zu,\"train\":%zu,\"calib\":%zu,\"test\":%zu,"
      "\"threads\":%d,\"jk_folds\":%d,\"setup_repeats\":%d},\"alpha\":%g,"
      "\"setup_repeats\":%d},"
      "\"host\":{\"nproc\":%u,\"simd\":\"%s\",\"build_type\":\"%s\","
      "\"compiler\":\"%s\"}}\n",
      st.workload.c_str(), static_cast<unsigned long long>(st.seed),
      st.seconds, st.trace ? 1 : 0, st.rate_mid,
      st.rate_heavy, st.serve_rows, st.serve_train, st.serve_calib,
      st.serve_test, st.drift_queries, st.drift_spec.c_str(),
      st.serve_threads, fe.max_batch, fe.flush_timeout_us, fe.queue_capacity,
      st.closed_loop_outstanding, st.worker_cpu, st.generator_cpu, st.pi_rows, st.pi_train, st.pi_calib,
      st.pi_test, st.pi_threads, st.jk_folds, st.pi_setup_repeats, st.alpha,
      st.setup_repeats,
      std::thread::hardware_concurrency(), confcard::nn::SimdIsaName(),
      PERFBENCH_BUILD_TYPE, __VERSION__);
}

void PrintResult(const Settings& st, Result* result) {
  std::string metrics;
  const MetricDef* defs = st.trace ? kPerLayer : kEndToEnd;
  const size_t n = st.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; i < n; ++i) {
    const auto it = result->metrics.find(defs[i].name);
    double v = it == result->metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      result->Check(false, std::string(defs[i].name) + " is not finite");
      v = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i == 0 ? "" : ",", defs[i].name, v, defs[i].unit);
    metrics += buf;
  }
  for (const std::string& p : result->problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  std::string diagnostics;
  for (const auto& [name, v] : result->diagnostics) {
    diagnostics += (diagnostics.empty() ? "\"" : ",\"") + name +
                   "\":" + std::to_string(v);
  }
  std::printf("{\"diagnostics\":{%s}}\n", diagnostics.c_str());
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      result->correct ? "true" : "false",
      static_cast<unsigned long long>(result->attempted),
      static_cast<unsigned long long>(result->failed), metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RefuseProgramEnvironment();
  const Settings st = Parse(argc, argv);
  PrintConfig(st);
  std::fflush(stdout);
  Result result;
  if (st.workload == "serve_open") {
    RunServeOpen(st, st.rate_heavy, &result);
  } else if (st.workload == "drift_feedback") {
    RunDriftFeedback(st, &result);
  } else if (st.workload == "pi_offline") {
    RunPiOffline(st, &result);
  } else {
    Usage("unknown workload '" + st.workload + "'");
  }
  if (result.attempted == 0) result.Check(false, "nothing was attempted");
  PrintResult(st, &result);
  return 0;
}
