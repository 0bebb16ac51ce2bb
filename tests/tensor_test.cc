#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/parallel.h"
#include "obs/metrics.h"

namespace confcard {
namespace nn {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t(2, 3);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, AtReadWrite) {
  Tensor t(2, 2);
  t.At(1, 0) = 5.0f;
  EXPECT_EQ(t.At(1, 0), 5.0f);
  EXPECT_EQ(t.data()[2], 5.0f);  // row-major layout
}

TEST(TensorTest, FillScaleAdd) {
  Tensor a(2, 2), b(2, 2);
  a.Fill(1.0f);
  b.Fill(2.0f);
  a.Add(b);
  a.Scale(0.5f);
  for (float v : a.data()) EXPECT_EQ(v, 1.5f);
}

TEST(TensorTest, RandnMoments) {
  Rng rng(1);
  Tensor t = Tensor::Randn(100, 100, 2.0f, rng);
  double sum = 0.0, sq = 0.0;
  for (float v : t.data()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double n = 10000.0;
  EXPECT_NEAR(sum / n, 0.0, 0.1);
  EXPECT_NEAR(sq / n, 4.0, 0.3);
}

TEST(MatMulTest, KnownProduct) {
  Tensor a(2, 3), b(3, 2);
  // a = [[1,2,3],[4,5,6]], b = [[7,8],[9,10],[11,12]]
  float av[] = {1, 2, 3, 4, 5, 6};
  float bv[] = {7, 8, 9, 10, 11, 12};
  std::copy(av, av + 6, a.data().begin());
  std::copy(bv, bv + 6, b.data().begin());
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(MatMulTest, TransposedVariantsAgreeWithExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::Randn(4, 5, 1.0f, rng);
  Tensor b = Tensor::Randn(4, 6, 1.0f, rng);

  // MatMulTransA(a, b) == a^T * b.
  Tensor at(5, 4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 5; ++j) at.At(j, i) = a.At(i, j);
  }
  Tensor expect = MatMul(at, b);
  Tensor got = MatMulTransA(a, b);
  ASSERT_EQ(got.rows(), 5u);
  ASSERT_EQ(got.cols(), 6u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expect.data()[i], 1e-4f);
  }

  // MatMulTransB(a, c) == a * c^T for c (7, 5).
  Tensor c = Tensor::Randn(7, 5, 1.0f, rng);
  Tensor ct(5, 7);
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = 0; j < 5; ++j) ct.At(j, i) = c.At(i, j);
  }
  Tensor expect2 = MatMul(a, ct);
  Tensor got2 = MatMulTransB(a, c);
  for (size_t i = 0; i < got2.size(); ++i) {
    EXPECT_NEAR(got2.data()[i], expect2.data()[i], 1e-4f);
  }
}

TEST(TensorTest, UninitializedHasShapeOnly) {
  Tensor t = Tensor::Uninitialized(3, 4);
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 4u);
  EXPECT_EQ(t.size(), 12u);
  t.Fill(2.0f);  // contents are writable garbage until filled
  for (float v : t.data()) EXPECT_EQ(v, 2.0f);
  Tensor u = Tensor::UninitializedLike(t);
  EXPECT_EQ(u.rows(), t.rows());
  EXPECT_EQ(u.cols(), t.cols());
}

// Textbook reference kernels: one float accumulator per output element,
// inner index ascending — the summation order the blocked kernels
// guarantee to preserve.
Tensor RefMatMul(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < a.cols(); ++p) acc += a.At(i, p) * b.At(p, j);
      c.At(i, j) = acc;
    }
  }
  return c;
}

Tensor RefMatMulTransA(const Tensor& a, const Tensor& b) {
  Tensor c(a.cols(), b.cols());
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < a.rows(); ++p) acc += a.At(p, i) * b.At(p, j);
      c.At(i, j) = acc;
    }
  }
  return c;
}

Tensor RefMatMulTransB(const Tensor& a, const Tensor& b) {
  Tensor c(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < a.cols(); ++p) acc += a.At(i, p) * b.At(j, p);
      c.At(i, j) = acc;
    }
  }
  return c;
}

void ExpectClose(const Tensor& got, const Tensor& want, const char* label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    const float w = want.data()[i];
    // Tight relative tolerance: the kernels may contract to FMA where
    // the reference does not, but summation order is identical.
    ASSERT_NEAR(got.data()[i], w, 1e-4f * (1.0f + std::fabs(w)))
        << label << " flat index " << i;
  }
}

void ExpectBitIdentical(const Tensor& got, const Tensor& want,
                        const char* label) {
  ASSERT_EQ(got.rows(), want.rows()) << label;
  ASSERT_EQ(got.cols(), want.cols()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], want.data()[i]) << label << " flat " << i;
  }
}

TEST(MatMulTest, BlockedKernelsMatchReferenceAcrossShapesAndThreads) {
  const int saved_threads = CurrentThreads();
  obs::Counter& dispatches =
      obs::Metrics().GetCounter("pool.parallel_for_calls");
  // Odd shapes exercise the 4-row/4-col remainders. 64 x 288 x 96 is an
  // MSCN training product (3.5 Mflop): it stays below the flop
  // threshold and runs inline. 192 x 256 x 192 (18.9 Mflop, the GEMM of
  // bench_parallel) crosses it, so its 4-thread pass runs on the pool.
  const struct {
    size_t n, k, m;
    bool pooled;
  } shapes[] = {{1, 1, 1, false},
                {3, 5, 2, false},
                {17, 9, 33, false},
                {64, 128, 96, false},
                {64, 288, 96, false},
                {192, 256, 192, true}};
  Rng rng(7);
  for (const auto& s : shapes) {
    SCOPED_TRACE(::testing::Message() << s.n << " x " << s.k << " x " << s.m);
    Tensor a = Tensor::Randn(s.n, s.k, 1.0f, rng);
    Tensor b = Tensor::Randn(s.k, s.m, 1.0f, rng);
    // Zero some rows of a to exercise the skip-zero fast path.
    if (s.n > 2) {
      for (size_t j = 0; j < s.k; ++j) a.At(1, j) = 0.0f;
    }
    Tensor at = Tensor::Randn(s.k, s.n, 1.0f, rng);  // for TransA: k x n
    Tensor bt = Tensor::Randn(s.m, s.k, 1.0f, rng);  // for TransB: m x k

    SetThreads(1);
    Tensor c1 = MatMul(a, b);
    Tensor ta1 = MatMulTransA(at, b);
    Tensor tb1 = MatMulTransB(a, bt);
    ExpectClose(c1, RefMatMul(a, b), "MatMul");
    ExpectClose(ta1, RefMatMulTransA(at, b), "MatMulTransA");
    ExpectClose(tb1, RefMatMulTransB(a, bt), "MatMulTransB");

    SetThreads(4);
    const uint64_t before = dispatches.value();
    // Bit-identity between thread counts is the determinism contract.
    ExpectBitIdentical(MatMul(a, b), c1, "MatMul t4");
    ExpectBitIdentical(MatMulTransA(at, b), ta1, "MatMulTransA t4");
    ExpectBitIdentical(MatMulTransB(a, bt), tb1, "MatMulTransB t4");
    EXPECT_EQ(dispatches.value() - before, s.pooled ? 3u : 0u);
  }
  SetThreads(saved_threads);
}

TEST(MatMulTest, IdentityPreserves) {
  Rng rng(4);
  Tensor a = Tensor::Randn(3, 3, 1.0f, rng);
  Tensor id(3, 3);
  for (size_t i = 0; i < 3; ++i) id.At(i, i) = 1.0f;
  Tensor c = MatMul(a, id);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(c.data()[i], a.data()[i]);
  }
}

}  // namespace
}  // namespace nn
}  // namespace confcard
