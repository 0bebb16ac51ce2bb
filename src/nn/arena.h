// Thread-local buffer-reuse arena backing FloatBuffer (tensor.h).
//
// PR 7's profiler measured ~7.7 MB of Tensor temporaries per training
// epoch (~9.1 GB per full run): every MatMul/forward/backward allocates
// its output, uses it once, and frees it, and once folds train
// concurrently those frees all contend on the global allocator — part
// of the +15% allocation growth and 9x involuntary context switches at
// 4 threads (docs/PERFORMANCE.md). The fix exploits how regular the
// traffic is: a training step allocates the SAME byte sizes every
// iteration (batch x hidden activations, weight-shaped gradients), so a
// per-thread free-list keyed by exact byte size turns steady-state
// tensor allocation into a pop from a thread-local vector — no lock, no
// malloc, no cross-thread traffic.
//
// This is deliberately a recycling cache, NOT a bump arena: Tensor
// lifetimes are mixed (model weights live for a whole run, activations
// for one statement), and a pointer-resetting arena would need an
// epoch-scoped ownership discipline the tensor code doesn't have.
// Recycling gives the same "stop fighting the global allocator" win
// with drop-in std::vector semantics and no lifetime rules.
//
// Bounds and lifecycle:
//   * Each thread caches at most kArenaMaxCachedBytes (64 MB); releases
//     beyond the cap fall through to operator delete.
//   * Requests below kArenaMinBytes (256 B) are rounded up to one
//     shared 256 B size class: the serving hot path emits a sub-256B
//     prediction tensor (batch x 1) every micro-batch, and its
//     zero-allocation contract counts malloc's small-size fast path
//     like any other allocation. The round-up costs < 256 B of slack
//     per cached buffer and lets all small sizes reuse one warm list.
//   * ArenaTrim() frees the calling thread's cache; the training epoch
//     loops call it at epoch boundaries so memory parked in the cache
//     never outlives the phase that shaped it.
//   * Under AddressSanitizer a parked buffer is poisoned until
//     ArenaAllocate hands it out again or the cache frees it, so a
//     use of tensor storage after its release is still reported (as
//     use-after-poison rather than use-after-free).
//
// Values are unaffected by construction: the arena only changes WHERE
// uninitialized storage comes from, never its contents' computation
// order, so the bit-identity contract is untouched.
#ifndef CONFCARD_NN_ARENA_H_
#define CONFCARD_NN_ARENA_H_

#include <cstddef>
#include <cstdint>

namespace confcard {
namespace nn {

/// Per-thread cache cap; releases past it go straight to the allocator.
inline constexpr size_t kArenaMaxCachedBytes = size_t{64} << 20;

/// Requests smaller than this are rounded up to this shared size class.
inline constexpr size_t kArenaMinBytes = 256;

/// Returns a buffer of exactly `bytes` bytes — recycled from this
/// thread's cache when one of that size is parked there, freshly
/// allocated otherwise. Contents are unspecified.
void* ArenaAllocate(size_t bytes);

/// Returns a buffer obtained from ArenaAllocate with the same `bytes`.
/// Parks it in this thread's cache (for any thread — buffers may be
/// released on a different thread than they were allocated on) or frees
/// it when the cache is full or the thread is shutting down.
void ArenaRelease(void* ptr, size_t bytes) noexcept;

/// Frees everything parked in the CALLING thread's cache. Called at
/// training epoch boundaries; safe anytime — outstanding buffers are
/// unaffected, only idle ones are returned to the allocator.
void ArenaTrim() noexcept;

/// Counters for the calling thread's cache (tests and benches).
struct ArenaStats {
  uint64_t hits = 0;      // ArenaAllocate served from the cache
  uint64_t misses = 0;    // ArenaAllocate fell through to operator new
  uint64_t recycled = 0;  // ArenaRelease parked the buffer
  size_t cached_bytes = 0;
  size_t cached_buffers = 0;
};
ArenaStats ArenaThreadStats();

}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_ARENA_H_
