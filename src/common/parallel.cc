#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace confcard {
namespace {

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Set while a thread is executing ParallelFor chunks; nested loops see
// it and run inline instead of re-entering the pool.
thread_local bool t_in_parallel_worker = false;

struct InWorkerScope {
  InWorkerScope() : prev(t_in_parallel_worker) { t_in_parallel_worker = true; }
  ~InWorkerScope() { t_in_parallel_worker = prev; }
  bool prev;
};

// 0 = not yet resolved from the environment.
std::atomic<int> g_threads{0};

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

int ResolveThreadsFromEnv() {
  if (const char* env = std::getenv("CONFCARD_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) {
      return static_cast<int>(std::min<long>(v, 256));
    }
  }
  return HardwareThreads();
}

// Returns a pool with at least `helpers` workers, creating or growing
// the process-wide pool on demand. Never shrinks: a larger pool is
// harmless because ParallelFor only submits as many helper slots as it
// wants.
ThreadPool* PoolWithCapacity(int helpers) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool || g_pool->num_threads() < helpers) {
    g_pool.reset();  // join the old workers before spawning the new set
    g_pool = std::make_unique<ThreadPool>(helpers);
  }
  return g_pool.get();
}

// Claims chunks until the range (or an error) exhausts them. Runs on
// the caller and on every helper; determinism does not depend on which
// thread claims which chunk because callers write results by index.
void DrainLoop(internal::LoopState* state) {
  // One relaxed load when the profiler is off; arms this thread's
  // sampling timer on its first chunk otherwise. Covers pool workers
  // and the participating caller alike, including workers spawned
  // before the profiler started.
  obs::prof::RegisterCurrentThread();
  InWorkerScope scope;
  for (;;) {
    if (state->failed.load(std::memory_order_relaxed)) return;
    const size_t c = state->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= state->num_chunks) return;
    const size_t begin = c * state->chunk;
    const size_t end = std::min(state->n, begin + state->chunk);
    try {
      state->body(state->ctx, begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state->done_mu);
      if (!state->error) state->error = std::current_exception();
      state->failed.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

// Helper-slot execution: drain chunks, then retire the slot. The loop
// state may be destroyed by the waiting caller the moment it observes
// outstanding == 0, so the decrement-and-notify happens under done_mu
// and nothing touches `state` after the lock is released.
void RunLoopHelper(internal::LoopState* state) {
  DrainLoop(state);
  std::lock_guard<std::mutex> lock(state->done_mu);
  if (--state->outstanding == 0) state->done_cv.notify_one();
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  start_micros_ = NowMicros();
  obs::Metrics().GetGauge("pool.threads").Set(static_cast<double>(n));
  depth_gauge_ = &obs::Metrics().GetGauge("pool.queue_depth");
  // The slab: helper slots per loop are bounded by the thread count, so
  // this capacity only fills when many top-level loops are in flight at
  // once — and a full ring degrades gracefully (the caller runs the
  // chunks itself), it never blocks or allocates.
  ring_.assign(std::max<size_t>(256, static_cast<size_t>(n) * 8), nullptr);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // Lifetime busy fraction: total task time over total worker
  // wall-time. Telemetry only — excluded from obsdiff gating.
  const double wall = NowMicros() - start_micros_;
  const double denom = wall * static_cast<double>(workers_.size());
  if (denom > 0) {
    const double busy = static_cast<double>(
        obs::Metrics().GetCounter("pool.busy_us").value());
    obs::Metrics()
        .GetGauge("pool.worker_busy_fraction")
        .Set(std::min(1.0, busy / denom));
  }
}

int ThreadPool::SubmitLoopHelpers(internal::LoopState* loop, int count) {
  int enqueued = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    CONFCARD_CHECK_MSG(!stop_,
                       "ThreadPool::SubmitLoopHelpers after shutdown began");
    const size_t cap = ring_.size();
    while (enqueued < count && ring_size_ < cap) {
      ring_[(ring_head_ + ring_size_) % cap] = loop;
      ++ring_size_;
      ++enqueued;
    }
    // Published under the lock: submits and pops serialize on mu_, so
    // the gauge can never go backwards relative to the ring's depth.
    depth_gauge_->Set(static_cast<double>(ring_size_));
  }
  if (enqueued == 1) {
    cv_.notify_one();
  } else if (enqueued > 1) {
    cv_.notify_all();
  }
  return enqueued;
}

void ThreadPool::WorkerLoop(int worker_index) {
  obs::SetTraceThreadLabel("pool-worker-" + std::to_string(worker_index));
  obs::Counter& executed = obs::Metrics().GetCounter("pool.tasks_executed");
  obs::Counter& busy_us = obs::Metrics().GetCounter("pool.busy_us");
  for (;;) {
    internal::LoopState* loop = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || ring_size_ > 0; });
      if (ring_size_ == 0) return;  // stop_ && drained
      loop = ring_[ring_head_];
      ring_head_ = (ring_head_ + 1) % ring_.size();
      --ring_size_;
      depth_gauge_->Set(static_cast<double>(ring_size_));
    }
    const double t0 = NowMicros();
    RunLoopHelper(loop);
    busy_us.Increment(static_cast<uint64_t>(NowMicros() - t0));
    executed.Increment();
  }
}

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int CurrentThreads() {
  int v = g_threads.load(std::memory_order_relaxed);
  if (v == 0) {
    v = ResolveThreadsFromEnv();
    int expected = 0;
    if (!g_threads.compare_exchange_strong(expected, v,
                                           std::memory_order_relaxed)) {
      v = expected;
    }
  }
  return v;
}

void SetThreads(int n) {
  g_threads.store(std::max(1, std::min(n, 256)), std::memory_order_relaxed);
}

bool InParallelWorker() { return t_in_parallel_worker; }

void ParallelForErased(size_t n, size_t chunk,
                       void (*body)(void* ctx, size_t begin, size_t end),
                       void* ctx) {
  if (n == 0) return;
  const int threads = CurrentThreads();
  if (chunk == 0) {
    chunk = std::max<size_t>(
        1, n / (static_cast<size_t>(std::max(threads, 1)) * 8));
  }
  const size_t num_chunks = (n + chunk - 1) / chunk;
  if (threads <= 1 || num_chunks <= 1 || t_in_parallel_worker) {
    InWorkerScope scope;
    body(ctx, 0, n);
    return;
  }

  // Function-local static: one registry lookup ever, so the steady-state
  // dispatch path performs no allocation and no map probe.
  static obs::Counter& parallel_for_calls =
      obs::Metrics().GetCounter("pool.parallel_for_calls");
  parallel_for_calls.Increment();

  internal::LoopState state;
  state.n = n;
  state.chunk = chunk;
  state.num_chunks = num_chunks;
  state.body = body;
  state.ctx = ctx;

  const int helpers = static_cast<int>(std::min<size_t>(
      static_cast<size_t>(threads - 1), num_chunks - 1));
  ThreadPool* pool = PoolWithCapacity(helpers);
  // `outstanding` is written before SubmitLoopHelpers publishes the
  // state pointer (the pool mutex orders the two), so helpers always see
  // the full count.
  state.outstanding = helpers;
  const int enqueued = pool->SubmitLoopHelpers(&state, helpers);
  if (enqueued < helpers) {
    std::lock_guard<std::mutex> lock(state.done_mu);
    state.outstanding -= helpers - enqueued;
  }
  DrainLoop(&state);  // the caller participates
  {
    std::unique_lock<std::mutex> lock(state.done_mu);
    state.done_cv.wait(lock, [&state] { return state.outstanding == 0; });
  }
  if (state.error) std::rethrow_exception(state.error);
}

}  // namespace confcard
