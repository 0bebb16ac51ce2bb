#include "nn/tensor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

// Products below this many flops run inline on the calling thread.
// Below it, a 4-thread product costs 1.2-2.4x the CPU of the inline one
// on a 4-vCPU AVX-512 host; from it on, at most 1.33x, with a 2-3x
// wall-time gain (docs/PERFORMANCE.md, "When a GEMM goes to the pool").
// Every training GEMM of MSCN, Naru and LW-NN at the benchmark's shapes
// is below it; the largest, Naru's 64 -> 301 output layer at batch 128,
// is 4.9 Mflop.
constexpr size_t kMinFlopsToParallelize = size_t{1} << 23;

// Runs kernel(r0, r1) over [0, rows): one inline call for products
// below kMinFlopsToParallelize flops or 8 rows, else ParallelFor over
// chunks aligned to the 4-row micro block, so the grouping of rows into
// blocks — and therefore the zero-block skip decisions — is identical
// at every thread count.
template <typename Kernel>
void ForEachRowBlock(size_t rows, size_t flops, const Kernel& kernel) {
  if (flops < kMinFlopsToParallelize || rows < 8) {
    kernel(0, rows);
    return;
  }
  const size_t threads = static_cast<size_t>(std::max(1, CurrentThreads()));
  const size_t chunk = std::max<size_t>(1, rows / (threads * 4));
  ParallelFor(rows, (chunk + 3) & ~size_t{3}, kernel);
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
// Vector kernel: one register-tiled GEMM for every dense product. Bit
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
// so there the identity holds for finite weights. The vector
// instantiations sit behind `if constexpr (kHaveNativeLanes)` at the
// dispatch sites; MatMulCols also runs the kernel on ScalarLanes.
// ---------------------------------------------------------------------

// One product for the tiled kernel, every operand read in place:
// A'(i, p) = a[i * a_row + p * a_term] over the terms p < k,
// B(p, j) = b[p * ldb + j] and C(i, j) = c[i * ldc + j] over the
// columns j < m. MatMul reads A through the strides (k, 1), MatMulTransA
// through (1, n); the separate B and C strides let MatMulCols take a
// column range of B. The kernels below are instantiated per A layout:
// with kRowsOfA the term stride is the constant 1, else the row stride
// is.
struct Gemm {
  const float* a;
  size_t a_row, a_term, k;
  const float* b;
  size_t ldb;
  float* c;
  size_t ldc, m;
};

// The terms of the R-row block at row i that survive the zero skip, in
// ascending order into pidx; returns their number. A term is dropped
// only when all R values A'(i + r, p) are 0.0f, so a NaN keeps it.
// Along rows of A, W terms at a time OR the rows' nonzero lane masks;
// the other terms (all of a column block's, and the last k mod W of a
// row block's) are tested one by one, so no load leaves a row's [0, k).
template <typename L, size_t R, bool kRowsOfA>
size_t KeptTerms(const Gemm& g, size_t i, uint32_t* pidx) {
  constexpr size_t W = L::kWidth;
  const size_t a_row = kRowsOfA ? g.a_row : 1;
  const size_t a_term = kRowsOfA ? 1 : g.a_term;
  size_t np = 0, p = 0;
  if constexpr (W > 1 && kRowsOfA) {
    for (; p + W <= g.k; p += W) {
      uint32_t mask = 0;
      for (size_t r = 0; r < R; ++r) {
        mask |= L::NonzeroMask(L::Load(g.a + (i + r) * a_row + p));
      }
      for (; mask != 0; mask &= mask - 1) {
        pidx[np++] = static_cast<uint32_t>(p + std::countr_zero(mask));
      }
    }
  }
  for (; p < g.k; ++p) {
    uint32_t kept = 0;
    for (size_t r = 0; r < R; ++r) {
      kept |= simd::ScalarLanes::NonzeroMask(g.a[(i + r) * a_row + p * a_term]);
    }
    pidx[np] = static_cast<uint32_t>(p);
    np += kept;
  }
  return np;
}

// C[i, i + R)[j, j + V*W) = the kept terms of A'[i, i + R) times the
// matching B rows, with each A value broadcast straight from A. The
// R x V accumulators live across the whole term loop and are stored
// once at the end. At 4 x 3 they, 3 B vectors, a broadcast and a
// product need 17 vector registers: on AVX-512 (48 columns) they fit
// in the 32 zmm registers; on AVX2 (24 columns) GCC keeps one
// accumulator of the 16 ymm registers on the stack, which changes no
// value.
template <typename L, size_t R, size_t V, bool kRowsOfA>
inline void Tile(const Gemm& g, size_t i, const uint32_t* pidx, size_t np,
                 size_t j) {
  constexpr size_t W = L::kWidth;
  const size_t a_term = kRowsOfA ? 1 : g.a_term;
  const size_t ldb = g.ldb;
  typename L::Vec acc[R][V];
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) acc[r][v] = L::Zero();
  }
  const float* arow[R];
  for (size_t r = 0; r < R; ++r) {
    arow[r] = g.a + (i + r) * (kRowsOfA ? g.a_row : 1);
  }
  for (size_t t = 0; t < np; ++t) {
    const size_t p = pidx[t];
    const float* brow = g.b + p * ldb + j;
    typename L::Vec bv[V];
    for (size_t v = 0; v < V; ++v) bv[v] = L::Load(brow + v * W);
    for (size_t r = 0; r < R; ++r) {
      const typename L::Vec av = L::Broadcast(arow[r][p * a_term]);
      for (size_t v = 0; v < V; ++v) {
        acc[r][v] = L::Add(acc[r][v], L::Mul(av, bv[v]));
      }
    }
  }
  float* c = g.c + i * g.ldc + j;
  for (size_t r = 0; r < R; ++r) {
    for (size_t v = 0; v < V; ++v) L::Store(c + r * g.ldc + v * W, acc[r][v]);
  }
}

// Columns [j, m) of the R-row block at row i: 3-vector tiles, then one
// 2- or 1-vector tile for the remaining whole vectors, then the last
// m mod W columns as ScalarLanes tiles, three columns at a time.
template <typename L, size_t R, bool kRowsOfA>
void BlockColumns(const Gemm& g, size_t i, const uint32_t* pidx, size_t np,
                  size_t j = 0) {
  constexpr size_t W = L::kWidth;
  const size_t m = g.m;
  for (; j + 3 * W <= m; j += 3 * W) {
    Tile<L, R, 3, kRowsOfA>(g, i, pidx, np, j);
  }
  if (j + 2 * W <= m) {
    Tile<L, R, 2, kRowsOfA>(g, i, pidx, np, j);
    j += 2 * W;
  } else if (j + W <= m) {
    Tile<L, R, 1, kRowsOfA>(g, i, pidx, np, j);
    j += W;
  }
  if constexpr (W > 1) {
    if (j < m) BlockColumns<simd::ScalarLanes, R, kRowsOfA>(g, i, pidx, np, j);
  }
}

// C[r0:r1) of the product: 4-row blocks, then single rows, each
// scanned once for its kept terms and then swept across every column
// tile. Column blocks (MatMulTransA) are scanned G = W/4 at a time: one
// vector load of A's row p covers W rows of A', each 4-bit group of its
// nonzero mask decides whether p is kept in one block, and block b's
// list fills pidx[b * k, (b + 1) * k).
template <typename L, bool kRowsOfA>
void TiledRows(const Gemm& g, size_t r0, size_t r1) {
  if (g.m == 0) return;  // an empty C has null rows: nothing to store
  if (g.k == 0) {  // no terms, and A may have no storage to point into
    for (size_t i = r0; i < r1; ++i) std::fill_n(g.c + i * g.ldc, g.m, 0.0f);
    return;
  }
  constexpr size_t W = L::kWidth;
  constexpr size_t G = kRowsOfA ? 1 : std::max<size_t>(1, W / 4);
  // From the thread's tensor arena.
  std::vector<uint32_t, DefaultInitAllocator<uint32_t>> pidx(G * g.k);
  size_t i = r0;
  if constexpr (!kRowsOfA && W >= 4) {
    for (; i + W <= r1; i += W) {
      size_t np[G] = {};
      for (size_t p = 0; p < g.k; ++p) {
        const uint32_t mask = L::NonzeroMask(L::Load(g.a + p * g.a_term + i));
        for (size_t b = 0; b < G; ++b) {
          pidx[b * g.k + np[b]] = static_cast<uint32_t>(p);
          np[b] += (mask >> (4 * b) & 0xF) != 0;
        }
      }
      for (size_t b = 0; b < G; ++b) {
        BlockColumns<L, 4, false>(g, i + 4 * b, pidx.data() + b * g.k, np[b]);
      }
    }
  }
  for (; i + 4 <= r1; i += 4) {
    const size_t np = KeptTerms<L, 4, kRowsOfA>(g, i, pidx.data());
    BlockColumns<L, 4, kRowsOfA>(g, i, pidx.data(), np);
  }
  for (; i < r1; ++i) {
    const size_t np = KeptTerms<L, 1, kRowsOfA>(g, i, pidx.data());
    BlockColumns<L, 1, kRowsOfA>(g, i, pidx.data(), np);
  }
}

// Runs the product over C's n rows, each row chunk on lanes L.
template <typename L, bool kRowsOfA = true>
void Tiled(const Gemm& g, size_t n) {
  ForEachRowBlock(n, 2 * n * g.k * g.m, [&g](size_t r0, size_t r1) {
    TiledRows<L, kRowsOfA>(g, r0, r1);
  });
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
      Tiled<simd::NativeLanes>({a.data().data(), k, 1, k, b.data().data(), m,
                                c.data().data(), m, m},
                               n);
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
      Tiled<simd::NativeLanes, /*kRowsOfA=*/false>(
          {a.data().data(), 1, n, k, b.data().data(), m, c.data().data(), m,
           m},
          n);
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
      Tiled<simd::NativeLanes>({a.data().data(), k, 1, k, bt.data().data(), m,
                                c.data().data(), m, m},
                               n);
      return c;
    }
  }
  ForEachRowBlock(n, 2 * n * k * m, [&](size_t r0, size_t r1) {
    MatMulTransBRows(a, b, &c, r0, r1);
  });
  return c;
}

Tensor MatMulCols(const Tensor& a, const Tensor& b, size_t c0, size_t c1) {
  CONFCARD_DCHECK(a.cols() == b.rows());
  CONFCARD_DCHECK(c0 <= c1 && c1 <= b.cols());
  const size_t n = a.rows(), k = a.cols(), m = c1 - c0;
  Tensor c = Tensor::Uninitialized(n, m);
  const Gemm g{a.data().data(), k, 1, k, b.data().data() + c0, b.cols(),
               c.data().data(), m, m};
  if constexpr (simd::kHaveNativeLanes) {
    if (SimdEnabled()) {
      Tiled<simd::NativeLanes>(g, n);
      return c;
    }
  }
  Tiled<simd::ScalarLanes>(g, n);
  return c;
}

}  // namespace nn
}  // namespace confcard
