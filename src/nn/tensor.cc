#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"
#include "common/parallel.h"
#include "nn/simd.h"

namespace confcard {
namespace nn {

Tensor::Tensor(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Tensor Tensor::Uninitialized(size_t rows, size_t cols) {
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_.resize(rows * cols);  // default-init allocator: no zero-fill
  return t;
}

Tensor Tensor::Randn(size_t rows, size_t cols, float stddev, Rng& rng) {
  Tensor t = Uninitialized(rows, cols);
  for (float& v : t.data_) {
    v = stddev * static_cast<float>(rng.NextGaussian());
  }
  return t;
}

Tensor Tensor::HeInit(size_t fan_in, size_t fan_out, Rng& rng) {
  float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Randn(fan_in, fan_out, stddev, rng);
}

void Tensor::Fill(float value) {
  for (float& v : data_) v = value;
}

void Tensor::Add(const Tensor& other) {
  CONFCARD_DCHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
}

void Tensor::Scale(float s) {
  for (float& v : data_) v *= s;
}

namespace {

// Products smaller than this many flops run serially: pool dispatch
// costs a few microseconds, which swamps tiny GEMMs (e.g. single-query
// inference rows).
constexpr size_t kMinFlopsToParallelize = size_t{1} << 18;

// Output-row chunk aligned to the 4-row micro block, so the grouping of
// rows into blocks — and therefore the zero-block skip decisions — is
// identical at every thread count.
size_t RowChunk(size_t rows) {
  const size_t threads = static_cast<size_t>(std::max(1, CurrentThreads()));
  size_t chunk = std::max<size_t>(1, rows / (threads * 4));
  return (chunk + 3) & ~size_t{3};
}

template <typename Kernel>
void ForEachRowBlock(size_t rows, size_t flops, const Kernel& kernel) {
  if (flops >= kMinFlopsToParallelize && rows >= 8) {
    ParallelFor(rows, RowChunk(rows), kernel);
  } else {
    kernel(0, rows);
  }
}

// C[r0:r1) = A[r0:r1) * B. Four output rows share one streaming pass
// over B; each row's element is still a p-ascending sum, so values are
// bit-identical to the single-row loop. The zero test skips fully-zero
// blocks of A (one-hot Naru inputs), matching the naive kernel's
// per-row skip exactly for finite B.
void MatMulRows(const Tensor& a, const Tensor& b, Tensor* c, size_t r0,
                size_t r1) {
  const size_t k = a.cols(), m = b.cols();
  if (m == 0) return;  // an empty C has null rows: nothing to clear
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const float* a0 = a.RowPtr(i);
    const float* a1 = a.RowPtr(i + 1);
    const float* a2 = a.RowPtr(i + 2);
    const float* a3 = a.RowPtr(i + 3);
    float* c0 = c->RowPtr(i);
    float* c1 = c->RowPtr(i + 1);
    float* c2 = c->RowPtr(i + 2);
    float* c3 = c->RowPtr(i + 3);
    std::memset(c0, 0, 4 * m * sizeof(float));  // rows are contiguous
    for (size_t p = 0; p < k; ++p) {
      const float v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
      if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f) continue;
      const float* brow = b.RowPtr(p);
      for (size_t j = 0; j < m; ++j) {
        const float bj = brow[j];
        c0[j] += v0 * bj;
        c1[j] += v1 * bj;
        c2[j] += v2 * bj;
        c3[j] += v3 * bj;
      }
    }
  }
  for (; i < r1; ++i) {
    const float* arow = a.RowPtr(i);
    float* crow = c->RowPtr(i);
    std::memset(crow, 0, m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.0f) continue;
      const float* brow = b.RowPtr(p);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// C[r0:r1) of C = A^T * B: output row i reads column i of A. Blocked
// four columns at a time so B streams once per block; per-element sums
// stay p-ascending, matching the p-outer naive loop bit for bit.
void MatMulTransARows(const Tensor& a, const Tensor& b, Tensor* c, size_t r0,
                      size_t r1) {
  const size_t k = a.rows(), m = b.cols();
  if (m == 0) return;  // an empty C has null rows: nothing to clear
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    float* c0 = c->RowPtr(i);
    float* c1 = c->RowPtr(i + 1);
    float* c2 = c->RowPtr(i + 2);
    float* c3 = c->RowPtr(i + 3);
    std::memset(c0, 0, 4 * m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float* arow = a.RowPtr(p);
      const float v0 = arow[i], v1 = arow[i + 1], v2 = arow[i + 2],
                  v3 = arow[i + 3];
      if (v0 == 0.0f && v1 == 0.0f && v2 == 0.0f && v3 == 0.0f) continue;
      const float* brow = b.RowPtr(p);
      for (size_t j = 0; j < m; ++j) {
        const float bj = brow[j];
        c0[j] += v0 * bj;
        c1[j] += v1 * bj;
        c2[j] += v2 * bj;
        c3[j] += v3 * bj;
      }
    }
  }
  for (; i < r1; ++i) {
    float* crow = c->RowPtr(i);
    std::memset(crow, 0, m * sizeof(float));
    for (size_t p = 0; p < k; ++p) {
      const float av = a.At(p, i);
      if (av == 0.0f) continue;
      const float* brow = b.RowPtr(p);
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
}

// C[r0:r1) of C = A * B^T: independent dot products; four B rows share
// one streaming pass over the A row. Accumulators are per-element, so
// the j-blocking cannot change any value.
void MatMulTransBRows(const Tensor& a, const Tensor& b, Tensor* c, size_t r0,
                      size_t r1) {
  const size_t k = a.cols(), m = b.rows();
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a.RowPtr(i);
    float* crow = c->RowPtr(i);
    size_t j = 0;
    for (; j + 4 <= m; j += 4) {
      const float* b0 = b.RowPtr(j);
      const float* b1 = b.RowPtr(j + 1);
      const float* b2 = b.RowPtr(j + 2);
      const float* b3 = b.RowPtr(j + 3);
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        const float av = arow[p];
        acc0 += av * b0[p];
        acc1 += av * b1[p];
        acc2 += av * b2[p];
        acc3 += av * b3[p];
      }
      crow[j] = acc0;
      crow[j + 1] = acc1;
      crow[j + 2] = acc2;
      crow[j + 3] = acc3;
    }
    for (; j < m; ++j) {
      const float* brow = b.RowPtr(j);
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

// ---------------------------------------------------------------------
// Vector kernel: one register-tiled GEMM for all three products. Bit
// identity with the scalar kernels above rests on two invariants:
// (1) vector lanes only span independent OUTPUT columns (the j
// dimension), so every output element still accumulates its p-terms
// one at a time in ascending p order with one rounding per mul and per
// add (simd.h lane ops never fuse); (2) the terms skipped are exactly
// the scalar kernels' — a p whose four A values in the 4-row block are
// all zero, and in the row tail a p whose single A value is zero. An
// accumulator that starts at +0.0 never becomes -0.0 (x + y is -0.0
// only when both are -0.0), so adding a zero product changes nothing
// and skipping one keeps the bits for finite B. MatMulTransB runs the
// same kernel over B transposed; its scalar reference skips nothing,
// so there the identity holds for finite weights. Guarded by
// `if constexpr (kHaveNativeLanes)` at the dispatch sites so
// scalar-only builds never instantiate it.
// ---------------------------------------------------------------------

// Packs the terms of the R-row block at output row i that survive the
// zero skip: a p is dropped when A(i + r, p) == 0 for every r. Kept
// terms land in ascending p order, pidx[t] = p and pa[t*R + r] =
// A(i + r, p). The skip depends only on the block and p, so the
// j-tiles below share one pack. Returns the number of kept terms.
template <size_t R, typename AAt>
size_t PackBlock(const AAt& a_at, size_t i, size_t k, float* pa,
                 uint32_t* pidx) {
  size_t np = 0;
  for (size_t p = 0; p < k; ++p) {
    float v[R];
    bool all_zero = true;
    for (size_t r = 0; r < R; ++r) {
      v[r] = a_at(i + r, p);
      all_zero = all_zero && v[r] == 0.0f;
    }
    if (all_zero) continue;
    for (size_t r = 0; r < R; ++r) pa[np * R + r] = v[r];
    pidx[np++] = static_cast<uint32_t>(p);
  }
  return np;
}

// C[0:R)[j, j + V*W) of the block = the packed terms times the matching
// B rows; B and C rows are both m floats long. The R x V accumulators
// live across the whole term loop and are stored once at the end. At
// 4 x 3 on AVX2 they, 3 B vectors, a broadcast and a product need 17
// of the 16 ymm registers, so GCC keeps one accumulator on the stack;
// that changes no value.
template <typename L, size_t R, size_t V>
inline void Tile(const float* pa, const uint32_t* pidx, size_t np,
                 const float* b, size_t m, size_t j, float* c) {
  constexpr size_t W = L::kWidth;
  typename L::Vec acc[R][V];
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) acc[r][v] = L::Zero();
  }
  for (size_t t = 0; t < np; ++t) {
    const float* brow = b + size_t{pidx[t]} * m + j;
    typename L::Vec bv[V];
    for (size_t v = 0; v < V; ++v) bv[v] = L::Load(brow + v * W);
    for (size_t r = 0; r < R; ++r) {
      const typename L::Vec av = L::Broadcast(pa[t * R + r]);
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = L::Add(acc[r][v], L::Mul(av, bv[v]));
      }
    }
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) L::Store(c + r * m + j + v * W, acc[r][v]);
  }
}

// Every column of an R-row block: 3-vector tiles, then one 2- or
// 1-vector tile for the remaining whole vectors, then single scalar
// columns (a width-1 tile per column) for the last m mod W.
template <typename L, size_t R>
void BlockColumns(const float* pa, const uint32_t* pidx, size_t np,
                  const Tensor& b, float* c) {
  constexpr size_t W = L::kWidth;
  const size_t m = b.cols();
  const float* bp = b.data().data();
  size_t j = 0;
  for (; j + 3 * W <= m; j += 3 * W) Tile<L, R, 3>(pa, pidx, np, bp, m, j, c);
  if (j + 2 * W <= m) {
    Tile<L, R, 2>(pa, pidx, np, bp, m, j, c);
    j += 2 * W;
  } else if (j + W <= m) {
    Tile<L, R, 1>(pa, pidx, np, bp, m, j, c);
    j += W;
  }
  for (; j < m; ++j) Tile<simd::ScalarLanes, R, 1>(pa, pidx, np, bp, m, j, c);
}

// C[r0:r1) = A' * B where A'(i, p) = a_at(i, p) over p < k: 4-row
// blocks, then single rows, each packed once and then swept across
// every column tile.
template <typename L, typename AAt>
void TiledRows(const AAt& a_at, size_t k, const Tensor& b, Tensor* c,
               size_t r0, size_t r1) {
  // Both buffers come from the thread's tensor arena.
  FloatBuffer pa(4 * k);
  std::vector<uint32_t, DefaultInitAllocator<uint32_t>> pidx(k);
  size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const size_t np = PackBlock<4>(a_at, i, k, pa.data(), pidx.data());
    BlockColumns<L, 4>(pa.data(), pidx.data(), np, b, c->RowPtr(i));
  }
  for (; i < r1; ++i) {
    const size_t np = PackBlock<1>(a_at, i, k, pa.data(), pidx.data());
    BlockColumns<L, 1>(pa.data(), pidx.data(), np, b, c->RowPtr(i));
  }
}

// B^T, for MatMulTransB's pass through the tiled kernel. Strips of 8
// rows of B keep the lines read and the line written cache-resident.
Tensor Transpose(const Tensor& b) {
  const size_t rows = b.rows(), cols = b.cols();
  Tensor t = Tensor::Uninitialized(cols, rows);
  for (size_t j0 = 0; j0 < rows; j0 += 8) {
    const size_t j1 = std::min(rows, j0 + 8);
    for (size_t p = 0; p < cols; ++p) {
      float* trow = t.RowPtr(p);
      for (size_t j = j0; j < j1; ++j) trow[j] = b.At(j, p);
    }
  }
  return t;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CONFCARD_DCHECK(a.cols() == b.rows());
  const size_t n = a.rows(), k = a.cols(), m = b.cols();
  Tensor c = Tensor::Uninitialized(n, m);
  if constexpr (simd::kHaveNativeLanes) {
    if (SimdEnabled()) {
      auto a_at = [&a](size_t i, size_t p) { return a.RowPtr(i)[p]; };
      ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
        TiledRows<simd::NativeLanes>(a_at, k, b, &c, r0, r1);
      });
      return c;
    }
  }
  ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
    MatMulRows(a, b, &c, r0, r1);
  });
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  CONFCARD_DCHECK(a.rows() == b.rows());
  const size_t k = a.rows(), n = a.cols(), m = b.cols();
  Tensor c = Tensor::Uninitialized(n, m);
  if constexpr (simd::kHaveNativeLanes) {
    if (SimdEnabled()) {
      auto a_at = [&a](size_t i, size_t p) { return a.RowPtr(p)[i]; };
      ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
        TiledRows<simd::NativeLanes>(a_at, k, b, &c, r0, r1);
      });
      return c;
    }
  }
  ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
    MatMulTransARows(a, b, &c, r0, r1);
  });
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  CONFCARD_DCHECK(a.cols() == b.cols());
  const size_t n = a.rows(), k = a.cols(), m = b.rows();
  Tensor c = Tensor::Uninitialized(n, m);
  if constexpr (simd::kHaveNativeLanes) {
    if (SimdEnabled()) {
      const Tensor bt = Transpose(b);
      auto a_at = [&a](size_t i, size_t p) { return a.RowPtr(i)[p]; };
      ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
        TiledRows<simd::NativeLanes>(a_at, k, bt, &c, r0, r1);
      });
      return c;
    }
  }
  ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
    MatMulTransBRows(a, b, &c, r0, r1);
  });
  return c;
}

}  // namespace nn
}  // namespace confcard
