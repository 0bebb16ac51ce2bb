// Thread-local tensor-buffer arena (nn/arena.h): exact-size recycling,
// the small-buffer bypass, trim-at-epoch semantics, and correctness of
// tensors built on recycled (dirty) storage — serially and from inside
// ParallelFor workers, where each pool thread owns an independent
// cache. Under ASan, a write to a parked buffer must be reported.
#include "nn/arena.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "nn/tensor.h"

namespace confcard {
namespace nn {
namespace {

class ThreadsRestorer {
 public:
  ThreadsRestorer() : saved_(CurrentThreads()) {}
  ~ThreadsRestorer() { SetThreads(saved_); }

 private:
  int saved_;
};

TEST(ArenaTest, RecyclesExactSizeBuffers) {
  ArenaTrim();
  const ArenaStats before = ArenaThreadStats();
  const float* first_ptr = nullptr;
  {
    Tensor t = Tensor::Uninitialized(64, 64);  // 16 KB, well over the floor
    first_ptr = t.data().data();
  }
  // The freed buffer must be parked, and an identical-size allocation
  // must get exactly it back (LIFO).
  const ArenaStats parked = ArenaThreadStats();
  EXPECT_EQ(parked.recycled, before.recycled + 1);
  EXPECT_GE(parked.cached_bytes, 64 * 64 * sizeof(float));
  {
    Tensor t = Tensor::Uninitialized(64, 64);
    EXPECT_EQ(t.data().data(), first_ptr);
    const ArenaStats reused = ArenaThreadStats();
    EXPECT_EQ(reused.hits, before.hits + 1);
  }
  ArenaTrim();
}

TEST(ArenaTest, DifferentSizeMissesTheCache) {
  ArenaTrim();
  { Tensor t = Tensor::Uninitialized(64, 64); }
  const ArenaStats before = ArenaThreadStats();
  { Tensor t = Tensor::Uninitialized(64, 65); }
  const ArenaStats after = ArenaThreadStats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses + 1);
  ArenaTrim();
}

TEST(ArenaTest, SmallBuffersShareTheMinimumSizeClass) {
  ArenaTrim();
  const ArenaStats before = ArenaThreadStats();
  { Tensor t = Tensor::Uninitialized(2, 2); }  // 16 B, rounds up to 256
  const ArenaStats mid = ArenaThreadStats();
  EXPECT_EQ(mid.recycled, before.recycled + 1);
  EXPECT_EQ(mid.cached_bytes, before.cached_bytes + kArenaMinBytes);
  // A DIFFERENT sub-minimum size reuses the same parked buffer: every
  // small request shares the one kArenaMinBytes class.
  { Tensor t = Tensor::Uninitialized(3, 5); }  // 60 B, same class
  const ArenaStats after = ArenaThreadStats();
  EXPECT_EQ(after.hits, mid.hits + 1);
  ArenaTrim();
}

TEST(ArenaTest, TrimEmptiesTheCallingThreadsCache) {
  { Tensor t = Tensor::Uninitialized(32, 32); }
  EXPECT_GT(ArenaThreadStats().cached_bytes, 0u);
  ArenaTrim();
  const ArenaStats after = ArenaThreadStats();
  EXPECT_EQ(after.cached_bytes, 0u);
  EXPECT_EQ(after.cached_buffers, 0u);
}

TEST(ArenaTest, ZerosOnRecycledStorageAreZero) {
  ArenaTrim();
  {
    Tensor dirty = Tensor::Uninitialized(16, 16);
    dirty.Fill(123.456f);
  }
  // Zeros must explicitly clear the recycled (dirty) buffer.
  Tensor z = Tensor::Zeros(16, 16);
  for (float v : z.data()) ASSERT_EQ(v, 0.0f);
  ArenaTrim();
}

TEST(ArenaTest, KernelResultsUnchangedByRecycling) {
  // Same GEMM computed on cold storage and on a warmed cache must be
  // byte-identical: the arena only changes where storage comes from.
  ThreadsRestorer restore;
  SetThreads(1);
  Rng rng(99);
  Tensor a = Tensor::Randn(24, 17, 1.0f, rng);
  Tensor b = Tensor::Randn(17, 21, 1.0f, rng);
  ArenaTrim();
  Tensor cold = MatMul(a, b);
  Tensor warm = MatMul(a, b);  // reuses the buffer freed by... nothing yet
  { Tensor scratch = MatMul(a, b); }
  Tensor recycled = MatMul(a, b);  // now drawing recycled storage
  ASSERT_EQ(cold.size(), recycled.size());
  EXPECT_EQ(std::memcmp(cold.data().data(), warm.data().data(),
                        cold.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(cold.data().data(), recycled.data().data(),
                        cold.size() * sizeof(float)),
            0);
}

TEST(ArenaTest, PerWorkerCachesUnderParallelFor) {
  ThreadsRestorer restore;
  SetThreads(4);
  // Each chunk allocates, dirties, and frees tensors on whatever worker
  // runs it; per-thread caches mean no cross-thread interference and no
  // lost or double-counted buffers. Repeat rounds so workers hit their
  // own parked buffers.
  for (int round = 0; round < 3; ++round) {
    std::vector<double> sums(64);
    ParallelFor(64, 1, [&sums](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        Tensor t = Tensor::Uninitialized(48, 48);
        t.Fill(static_cast<float>(i));
        double s = 0.0;
        for (float v : t.data()) s += v;
        sums[i] = s;
      }
    });
    for (size_t i = 0; i < sums.size(); ++i) {
      ASSERT_EQ(sums[i], static_cast<double>(i) * 48 * 48) << "i=" << i;
    }
  }
  // Trim on the caller releases only this thread's cache; worker caches
  // stay bounded by the per-thread cap and die with the pool.
  ArenaTrim();
  EXPECT_EQ(ArenaThreadStats().cached_bytes, 0u);
}

#if defined(__SANITIZE_ADDRESS__)
// Under ASan a parked buffer is poisoned: touching tensor storage after
// its release is reported even though the arena still owns the memory.
TEST(ArenaDeathTest, WriteToParkedBufferIsReportedUnderAsan) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        void* p = ArenaAllocate(1024);
        ArenaRelease(p, 1024);
        static_cast<volatile char*>(p)[0] = 1;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace nn
}  // namespace confcard
