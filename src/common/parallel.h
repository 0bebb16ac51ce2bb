// Deterministic thread-pool parallelism for the repo's hot loops (fold
// training, progressive sampling, per-query harness evaluation, GEMM
// row blocks). Design rules that keep N-thread runs bit-identical to
// 1-thread runs:
//   * ParallelFor partitions an index range; callers write results into
//     pre-sized slots by index, so output order never depends on
//     scheduling.
//   * All randomness stays in per-task seeded Rng instances (one per
//     fold / per query / per call); no task reads another task's stream.
//   * The caller thread participates in the loop, so ParallelFor makes
//     progress even when every pool worker is busy (no deadlock under
//     nesting) and `threads == 1` degenerates to a plain serial loop.
//   * A ParallelFor issued from inside another ParallelFor runs inline
//     on the issuing worker: the outer loop already owns the cores, and
//     inlining keeps the task count bounded.
// Dispatch is allocation-free after pool warmup: the loop descriptor
// lives on the issuing thread's stack, helper slots go through a
// preallocated ring in the pool (no per-chunk std::function or
// packaged_task heap traffic), and the body is passed as a plain
// function pointer + context instead of a std::function. The profiled
// +15% allocation scaling tax at 4 threads (docs/PERFORMANCE.md) came
// from exactly that per-dispatch heap state.
// Thread count resolution: CONFCARD_THREADS env var if set, else
// std::thread::hardware_concurrency(); SetThreads() overrides at
// runtime (benches sweep 1/2/4; tests pin both sides of a determinism
// comparison).
#ifndef CONFCARD_COMMON_PARALLEL_H_
#define CONFCARD_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace confcard {

namespace obs {
class Gauge;
}  // namespace obs

namespace internal {

/// One parallel loop in flight. Lives on the issuing thread's STACK for
/// the duration of the ParallelFor call — ParallelFor blocks until
/// `outstanding` helper slots have all finished, so no heap lifetime is
/// needed. Workers claim chunks off `next_chunk`; the first exception
/// lands in `error` under `done_mu`.
struct LoopState {
  std::atomic<size_t> next_chunk{0};
  std::atomic<bool> failed{false};
  size_t n = 0;
  size_t chunk = 0;
  size_t num_chunks = 0;
  void (*body)(void* ctx, size_t begin, size_t end) = nullptr;
  void* ctx = nullptr;

  std::mutex done_mu;
  std::condition_variable done_cv;
  int outstanding = 0;  // helper slots enqueued and not yet finished
  std::exception_ptr error;
};

}  // namespace internal

/// Fixed-size worker pool with one queue: helper slots for a
/// ParallelFor are plain pointers pushed into a preallocated ring (the
/// per-pool task slab), so steady-state dispatch performs zero heap
/// allocations. Destruction is graceful: every helper slot already
/// queued is executed before the workers join. Publishes
/// scheduling telemetry under the "pool." metric prefix (see
/// docs/OBSERVABILITY.md); those metrics are deliberately excluded from
/// obsdiff gating because they vary with thread count by design.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (floored at 1).
  explicit ThreadPool(int num_threads);
  /// Runs every queued helper slot, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues up to `count` helper slots for `loop` into the
  /// preallocated ring; returns how many were actually enqueued (fewer
  /// when the ring is full — the caller simply drains more chunks
  /// itself). Allocation-free. `loop` must stay alive until all
  /// enqueued slots have finished (ParallelFor guarantees this by
  /// blocking on loop->done_cv).
  int SubmitLoopHelpers(internal::LoopState* loop, int count);

 private:
  void WorkerLoop(int worker_index);

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  // FIFO ring of loop helper slots; capacity fixed at construction so
  // steady-state enqueue/dequeue never allocates.
  std::vector<internal::LoopState*> ring_;
  size_t ring_head_ = 0;
  size_t ring_size_ = 0;
  std::vector<std::thread> workers_;
  obs::Gauge* depth_gauge_ = nullptr;
  double start_micros_ = 0.0;
};

/// std::thread::hardware_concurrency() floored at 1.
int HardwareThreads();

/// One spin-wait pause. Emits the architectural pause/yield hint so a
/// polling loop (the serving micro-batcher's flush-timeout wait, queue
/// backoff) releases pipeline resources to the sibling hyperthread
/// without a syscall. Compiles to a plain no-op where no hint exists.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// The effective thread count: the last SetThreads() value if any, else
/// CONFCARD_THREADS (clamped to [1, 256]), else HardwareThreads().
int CurrentThreads();

/// Runtime override of the thread count (n <= 1 forces serial
/// execution). Not safe to call concurrently with a running
/// ParallelFor; intended for benches and tests that sweep counts.
void SetThreads(int n);

/// True while the calling thread is executing a ParallelFor chunk
/// (worker or participating caller). Nested ParallelFor calls run
/// inline in that case.
bool InParallelWorker();

/// Type-erased core of ParallelFor: `body(ctx, begin, end)` over
/// disjoint chunks covering [0, n). Prefer the template wrapper below,
/// which erases a callable without constructing a std::function.
void ParallelForErased(size_t n, size_t chunk,
                       void (*body)(void* ctx, size_t begin, size_t end),
                       void* ctx);

/// Runs fn(begin, end) over disjoint chunks covering [0, n). `chunk` is
/// the max indices per invocation; 0 picks a default that yields ~8
/// chunks per thread. Serial (one fn(0, n) call on this thread) when n
/// fits one chunk, the effective thread count is 1, or the caller is
/// already inside a ParallelFor. The first exception thrown by any
/// chunk is rethrown on the calling thread after remaining chunks are
/// cancelled. Blocks until every chunk has finished. The callable is
/// borrowed for the duration of the call (no copy, no allocation).
template <typename Body>
void ParallelFor(size_t n, size_t chunk, const Body& fn) {
  ParallelForErased(
      n, chunk,
      [](void* ctx, size_t begin, size_t end) {
        (*static_cast<const Body*>(ctx))(begin, end);
      },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

}  // namespace confcard

#endif  // CONFCARD_COMMON_PARALLEL_H_
