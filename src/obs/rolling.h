// Fixed-capacity rolling window over doubles: O(1) push, O(1) mean.
// Backs the online monitors (windowed coverage and mean width) published
// from OnlineConformal::Observe, where a full re-scan per observation
// would be too expensive for the Fig. 8/11 streams. The
// running sum is recomputed from the buffer once per wrap-around so
// floating-point drift stays bounded on long streams.
//
// Thread safety: all operations serialize on an internal mutex, so a
// window shared between an observer thread and a monitor/snapshot reader
// is race-free (and TSan-clean). The online path pushes at most two
// values per observed query, so an uncontended lock is noise next to the
// conformal update itself; values read after all writers have joined (or
// otherwise synchronized) are deterministic because Push order fully
// determines the state.
#ifndef CONFCARD_OBS_ROLLING_H_
#define CONFCARD_OBS_ROLLING_H_

#include <cstddef>
#include <mutex>
#include <vector>

namespace confcard {
namespace obs {

class RollingWindow {
 public:
  explicit RollingWindow(size_t capacity)
      : buf_(capacity > 0 ? capacity : 1) {}

  void Push(double v) {
    std::lock_guard<std::mutex> lock(mu_);
    if (size_ == buf_.size()) {
      sum_ -= buf_[next_];
    } else {
      ++size_;
    }
    buf_[next_] = v;
    sum_ += v;
    next_ = (next_ + 1) % buf_.size();
    if (next_ == 0) {
      sum_ = 0.0;
      for (size_t i = 0; i < size_; ++i) sum_ += buf_[i];
    }
  }

  double Sum() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sum_;
  }
  double Mean() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_ == 0 ? 0.0 : sum_ / static_cast<double>(size_);
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }
  size_t capacity() const { return buf_.size(); }
  bool full() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_ == buf_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    size_ = 0;
    next_ = 0;
    sum_ = 0.0;
  }

 private:
  // buf_'s length is fixed after construction, so capacity() reads it
  // without the lock.
  mutable std::mutex mu_;
  std::vector<double> buf_;
  size_t next_ = 0;
  size_t size_ = 0;
  double sum_ = 0.0;
};

}  // namespace obs
}  // namespace confcard

#endif  // CONFCARD_OBS_ROLLING_H_
