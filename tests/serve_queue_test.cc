// The serving front-end's bounded lock-free MPMC queue: FIFO order for
// a single producer/consumer, full/empty edge behavior, capacity
// rounding, a multi-producer/multi-consumer hammer that checks every
// pushed value is popped exactly once, and the same for the CAS-free
// single-consumer pop, whose consumer role moves to a second thread
// mid-run the way Stop() takes it over after the worker's join.
#include "serve/mpmc_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace confcard {
namespace serve {
namespace {

TEST(MpmcQueueTest, PushPopFifoSingleThread) {
  MpmcBoundedQueue<int*> q(8);
  int values[5] = {0, 1, 2, 3, 4};
  for (int& v : values) EXPECT_TRUE(q.TryPush(&v));
  for (int i = 0; i < 5; ++i) {
    int* out = nullptr;
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(*out, i);
  }
  int* out = nullptr;
  EXPECT_FALSE(q.TryPop(&out));
}

TEST(MpmcQueueTest, FullQueueFailsPushUntilPopped) {
  MpmcBoundedQueue<int*> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  int values[5] = {0, 1, 2, 3, 4};
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.TryPush(&values[i]));
  EXPECT_FALSE(q.TryPush(&values[4]));  // full: shed, do not block
  int* out = nullptr;
  ASSERT_TRUE(q.TryPop(&out));
  EXPECT_TRUE(q.TryPush(&values[4]));  // one slot freed
}

TEST(MpmcQueueTest, CapacityRoundsUpToPowerOfTwo) {
  MpmcBoundedQueue<int*> q(5);
  EXPECT_EQ(q.capacity(), 8u);
  MpmcBoundedQueue<int*> q1(1);
  EXPECT_EQ(q1.capacity(), 2u);
}

TEST(MpmcQueueTest, EmptyAfterWrapAround) {
  MpmcBoundedQueue<int*> q(2);
  int v = 7;
  // Cycle through several wraps of the tiny ring.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(q.TryPush(&v));
    int* out = nullptr;
    ASSERT_TRUE(q.TryPop(&out));
    EXPECT_EQ(out, &v);
    EXPECT_FALSE(q.TryPop(&out));
  }
}

// Multi-producer/multi-consumer hammer: every value pushed by any
// producer must be popped by exactly one consumer. Failed pushes (full
// queue) are retried so the totals balance.
TEST(MpmcQueueTest, ConcurrentHammerDeliversEachValueOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 2000;
  constexpr int kTotal = kProducers * kPerProducer;

  MpmcBoundedQueue<uint64_t*> q(64);
  std::vector<uint64_t> values(kTotal);
  for (int i = 0; i < kTotal; ++i) values[i] = static_cast<uint64_t>(i);

  std::vector<std::atomic<uint32_t>> seen(kTotal);
  for (auto& s : seen) s.store(0);
  std::atomic<int> popped{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        uint64_t* v = &values[p * kPerProducer + i];
        while (!q.TryPush(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      uint64_t* out = nullptr;
      while (popped.load(std::memory_order_relaxed) < kTotal) {
        if (q.TryPop(&out)) {
          seen[*out].fetch_add(1, std::memory_order_relaxed);
          popped.fetch_add(1, std::memory_order_relaxed);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(popped.load(), kTotal);
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen[i].load(), 1u) << "value " << i;
  }
}

TEST(MpmcQueueTest, SingleConsumerPopKeepsProducerOrder) {
  constexpr uint64_t kProducers = 4;
  constexpr uint64_t kPerProducer = 20000;
  constexpr uint64_t kTotal = kProducers * kPerProducer;
  // Small ring: producers run into full and the consumer into empty
  // over and over, across many wraps.
  MpmcBoundedQueue<uint64_t> q(16);
  std::vector<std::thread> producers;
  for (uint64_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        while (!q.TryPush((p << 32) | i)) std::this_thread::yield();
      }
    });
  }
  // Producer p's values must arrive as 0, 1, 2, ...: next[p] is the one
  // due. In order and kPerProducer of them means each exactly once.
  std::vector<uint64_t> next(kProducers, 0);
  uint64_t popped = 0;
  uint64_t out_of_order = 0;
  const auto pop_until = [&](uint64_t target) {
    uint64_t v = 0;
    while (popped < target) {
      if (!q.TryPopSingleConsumer(&v)) {
        std::this_thread::yield();
        continue;
      }
      ++popped;
      const uint64_t p = v >> 32;
      const uint64_t seq = v & 0xffffffffu;
      if (p >= kProducers || seq != next[p]) {
        ++out_of_order;
        continue;
      }
      next[p] = seq + 1;
    }
  };
  // First consumer takes half, then exits; this thread, ordered after
  // it by the join, takes the rest.
  std::thread consumer([&] { pop_until(kTotal / 2); });
  consumer.join();
  pop_until(kTotal);
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(out_of_order, 0u);
  for (uint64_t p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
  uint64_t extra = 0;
  EXPECT_FALSE(q.TryPopSingleConsumer(&extra));
}

}  // namespace
}  // namespace serve
}  // namespace confcard
