// Shared declarations of the benchmark: its settings, the result every
// workload fills, and the workload entry points.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ce/lwnn.h"
#include "data/table.h"
#include "obs/metrics.h"
#include "query/workload.h"

namespace perfbench {

/// Everything that shapes a run. The benchmark sets each value itself;
/// none is read from the environment.
struct Settings {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_path;  // where the traced run writes its spans
  // Fixed offered rates, requests per second.
  double rate_mid = 0.0;
  double rate_heavy = 0.0;
  // Serving workloads.
  size_t serve_rows = 40000;
  size_t serve_train = 1500;
  size_t serve_calib = 1500;
  size_t serve_test = 800;
  size_t drift_queries = 2000;
  std::string drift_spec = "update:1@0.2;zipf:1@0.2;template:0.5@0.2";
  int serve_threads = 1;
  // CPUs of the serving worker and of the load generator, so that every
  // run places the two threads alike; -1 leaves a thread unpinned.
  int worker_cpu = -1;
  int generator_cpu = -1;
  int setup_repeats = 3;
  size_t closed_loop_outstanding = 256;
  // pi_offline.
  size_t pi_rows = 0;
  size_t pi_train = 0;
  size_t pi_calib = 0;
  size_t pi_test = 0;
  int pi_threads = 4;
  int pi_setup_repeats = 5;
  int jk_folds = 10;
  double alpha = 0.1;
};

/// Deterministic sub-seed for one input of a run.
inline uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + purpose * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return (z ^ (z >> 31)) % 1000000007ULL + 1;
}

/// LW-NN as the repository's experiments configure it: coarse
/// histograms and a small net.
inline confcard::LwnnEstimator::Options LwnnOptions() {
  confcard::LwnnEstimator::Options o;
  o.histogram_buckets = 12;
  o.hidden1 = 32;
  o.hidden2 = 16;
  o.epochs = 30;
  return o;
}

/// `n` labelled queries of selectivity at most 0.2 over `table`.
confcard::Workload Label(const confcard::Table& table, size_t n,
                         uint64_t seed);

/// What a workload reports. Metric values are keyed by the names listed
/// in main.cc; `diagnostics` are printed on a line of their own and not
/// gated. A failed output check clears `correct` and is described in
/// `problems`.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::map<std::string, double> diagnostics;
  std::vector<std::string> problems;

  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
};

/// Process peak resident set size in MB.
double PeakRssMb();

/// Current value of a counter in the program's metrics registry.
inline uint64_t CounterValue(const char* name) {
  return confcard::obs::Metrics().GetCounter(name).value();
}

void RunServeOpen(const Settings& settings, double rate, Result* result);
void RunDriftFeedback(const Settings& settings, Result* result);
void RunPiOffline(const Settings& settings, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
