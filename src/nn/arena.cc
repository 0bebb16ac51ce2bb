#include "nn/arena.h"

// ASAN_(UN)POISON_MEMORY_REGION expand to nothing outside ASan builds.
#include <sanitizer/asan_interface.h>

#include <new>
#include <unordered_map>
#include <vector>

namespace confcard {
namespace nn {
namespace {

// One per thread. The alive flag guards against releases that arrive
// during/after thread_local destruction (e.g. a static Tensor destroyed
// after the cache): Get() returns nullptr once the cache is gone and
// callers fall through to plain delete.
struct ThreadCache {
  std::unordered_map<size_t, std::vector<void*>> free_lists;
  size_t cached_bytes = 0;
  size_t cached_buffers = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t recycled = 0;
  bool* alive;

  explicit ThreadCache(bool* alive_flag) : alive(alive_flag) {
    *alive = true;
  }
  ~ThreadCache() {
    *alive = false;
    FreeAll();
  }

  void FreeAll() noexcept {
    for (auto& [bytes, list] : free_lists) {
      for (void* p : list) {
        ASAN_UNPOISON_MEMORY_REGION(p, bytes);
        ::operator delete(p);
      }
    }
    free_lists.clear();
    cached_bytes = 0;
    cached_buffers = 0;
  }
};

ThreadCache* Get() {
  thread_local bool alive = false;
  thread_local ThreadCache cache(&alive);
  return alive ? &cache : nullptr;
}

}  // namespace

void* ArenaAllocate(size_t bytes) {
  // Sub-minimum requests share one kArenaMinBytes size class instead of
  // bypassing to malloc: batched inference produces a sub-256B output
  // tensor (batch x 1 floats) EVERY cycle, and the serving front-end's
  // zero-alloc contract counts malloc's fast path all the same. The
  // round-up also means all small sizes hit one warm free-list.
  const size_t key = bytes < kArenaMinBytes ? kArenaMinBytes : bytes;
  if (ThreadCache* cache = Get()) {
    auto it = cache->free_lists.find(key);
    if (it != cache->free_lists.end() && !it->second.empty()) {
      void* p = it->second.back();
      it->second.pop_back();
      cache->cached_bytes -= key;
      --cache->cached_buffers;
      ++cache->hits;
      ASAN_UNPOISON_MEMORY_REGION(p, key);
      return p;
    }
    ++cache->misses;
  }
  return ::operator new(key);
}

void ArenaRelease(void* ptr, size_t bytes) noexcept {
  if (ptr == nullptr) return;
  const size_t key = bytes < kArenaMinBytes ? kArenaMinBytes : bytes;
  if (ThreadCache* cache = Get()) {
    if (cache->cached_bytes + key <= kArenaMaxCachedBytes) {
      cache->free_lists[key].push_back(ptr);
      cache->cached_bytes += key;
      ++cache->cached_buffers;
      ++cache->recycled;
      ASAN_POISON_MEMORY_REGION(ptr, key);
      return;
    }
  }
  ::operator delete(ptr);
}

void ArenaTrim() noexcept {
  if (ThreadCache* cache = Get()) cache->FreeAll();
}

ArenaStats ArenaThreadStats() {
  ArenaStats stats;
  if (ThreadCache* cache = Get()) {
    stats.hits = cache->hits;
    stats.misses = cache->misses;
    stats.recycled = cache->recycled;
    stats.cached_bytes = cache->cached_bytes;
    stats.cached_buffers = cache->cached_buffers;
  }
  return stats;
}

}  // namespace nn
}  // namespace confcard
