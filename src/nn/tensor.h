// Dense 2-D float tensor (row-major; rows are batch entries). This is
// the entire "tensor library" the learned estimators need: the models in
// the paper are MLP-shaped, so matrix-matrix products plus elementwise
// ops suffice.
#ifndef CONFCARD_NN_TENSOR_H_
#define CONFCARD_NN_TENSOR_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/arena.h"

namespace confcard {
namespace nn {

/// std::allocator variant whose default construction leaves trivial
/// elements uninitialized, so FloatBuffer::resize skips the zero-fill
/// pass. Tensor::Uninitialized relies on this; everything else is
/// unchanged because explicit-value construction still value-initializes.
/// Storage comes from the thread-local recycling arena (nn/arena.h), so
/// the per-step tensor temporaries of a training loop stop hitting the
/// global allocator once each thread has warmed its cache.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  T* allocate(size_t n) {
    return static_cast<T*>(ArenaAllocate(n * sizeof(T)));
  }

  void deallocate(T* p, size_t n) noexcept {
    ArenaRelease(p, n * sizeof(T));
  }

  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;  // default-init: no zeroing for PODs
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

/// Backing storage of Tensor. Behaves like std::vector<float> except
/// that resize() without a fill value leaves new elements uninitialized.
using FloatBuffer = std::vector<float, DefaultInitAllocator<float>>;

/// Row-major matrix of floats.
class Tensor {
 public:
  Tensor() = default;
  /// Zero-initialized rows x cols tensor.
  Tensor(size_t rows, size_t cols);

  static Tensor Zeros(size_t rows, size_t cols) { return Tensor(rows, cols); }
  /// rows x cols tensor whose contents are UNINITIALIZED — every element
  /// must be written before it is read. For kernel outputs that
  /// overwrite (or memset-then-accumulate) the whole buffer.
  static Tensor Uninitialized(size_t rows, size_t cols);
  /// Uninitialized tensor with `other`'s shape.
  static Tensor UninitializedLike(const Tensor& other) {
    return Uninitialized(other.rows(), other.cols());
  }
  /// i.i.d. N(0, stddev^2) entries.
  static Tensor Randn(size_t rows, size_t cols, float stddev, Rng& rng);
  /// Kaiming/He initialization for a fan_in -> fan_out weight matrix.
  static Tensor HeInit(size_t fan_in, size_t fan_out, Rng& rng);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const float* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  FloatBuffer& data() { return data_; }
  const FloatBuffer& data() const { return data_; }

  void Fill(float value);
  /// this += other (same shape).
  void Add(const Tensor& other);
  /// this *= s.
  void Scale(float s);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  FloatBuffer data_;
};

// The products below use 4-output-row blocks (each B row streams once
// per block instead of once per row); the vector path lists each
// block's nonzero terms once and sweeps register-resident tiles of C
// across them, reading A in place (tensor.cc). Output rows fan out
// across the thread pool above a flop threshold. Per output element the
// accumulation order over the shared dimension is ascending regardless
// of blocking, tiling or thread count, so results are bit-identical to
// the naive triple loop for finite inputs and across any
// CONFCARD_THREADS setting.

/// C = A * B. Shapes: (n,k) x (k,m) -> (n,m).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// C = A^T * B. Shapes: (k,n) x (k,m) -> (n,m).
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
/// C = A * B^T. Shapes: (n,k) x (m,k) -> (n,m).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
/// Columns [c0, c1) of MatMul(a, b), bit for bit, computed without the
/// others. Shapes: (n,k) x (k,m) -> (n,c1-c0).
Tensor MatMulCols(const Tensor& a, const Tensor& b, size_t c0, size_t c1);

}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_TENSOR_H_
