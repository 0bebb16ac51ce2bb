// Bounded multi-producer/multi-consumer queue for the serving
// front-end's request path (Dmitry Vyukov's array-based design). Every
// slot carries a sequence number; producers and consumers claim
// positions with one CAS each and then synchronize on the slot's
// sequence, so the queue is lock-free, allocation-free after
// construction, and wait-free in the uncontended case. A full queue
// fails TryPush instead of blocking — the admission-control contract
// the front-end's load shedding is built on. A queue with one consumer
// at a time may pop with TryPopSingleConsumer, which claims its position
// with a plain store instead of the CAS.
#ifndef CONFCARD_SERVE_MPMC_QUEUE_H_
#define CONFCARD_SERVE_MPMC_QUEUE_H_

#include <atomic>
#include <cstddef>
#include <memory>

#include "common/check.h"

namespace confcard {
namespace serve {

/// Bounded MPMC queue over trivially copyable values (the front-end
/// stores Request pointers). Capacity is rounded up to a power of two.
template <typename T>
class MpmcBoundedQueue {
 public:
  explicit MpmcBoundedQueue(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    cells_ = std::make_unique<Cell[]>(cap);
    for (size_t i = 0; i < cap; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  MpmcBoundedQueue(const MpmcBoundedQueue&) = delete;
  MpmcBoundedQueue& operator=(const MpmcBoundedQueue&) = delete;

  size_t capacity() const { return mask_ + 1; }

  /// False when the queue is full (the caller sheds).
  bool TryPush(T value) {
    Cell* cell;
    size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = cell->seq.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos);
      if (diff == 0) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // the slot still holds an unconsumed value: full
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
    cell->value = value;
    cell->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// False when the queue is empty.
  bool TryPop(T* out) {
    Cell* cell;
    size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      cell = &cells_[pos & mask_];
      const size_t seq = cell->seq.load(std::memory_order_acquire);
      const intptr_t diff =
          static_cast<intptr_t>(seq) - static_cast<intptr_t>(pos + 1);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          break;
        }
      } else if (diff < 0) {
        return false;  // the slot has not been published yet: empty
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    *out = cell->value;
    cell->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// TryPop for a queue whose pops never overlap: the caller is its only
  /// consumer until some happens-before edge (a thread join, say) hands
  /// the role on. No other consumer moves the tail, so a published slot
  /// at the tail is this caller's without a CAS. False when empty.
  bool TryPopSingleConsumer(T* out) {
    const size_t pos = tail_.load(std::memory_order_relaxed);
    Cell& cell = cells_[pos & mask_];
    if (cell.seq.load(std::memory_order_acquire) != pos + 1) return false;
    *out = cell.value;
    cell.seq.store(pos + mask_ + 1, std::memory_order_release);
    tail_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<size_t> seq{0};
    T value{};
  };

  std::unique_ptr<Cell[]> cells_;
  size_t mask_ = 0;
  // Producers and the consumer advance independent cursors; keep them on
  // separate cache lines so enqueue traffic never invalidates dequeues.
  alignas(64) std::atomic<size_t> head_{0};
  alignas(64) std::atomic<size_t> tail_{0};
};

}  // namespace serve
}  // namespace confcard

#endif  // CONFCARD_SERVE_MPMC_QUEUE_H_
