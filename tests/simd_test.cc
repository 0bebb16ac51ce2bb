// Scalar-vs-SIMD bit identity of every vectorized kernel. The vector
// paths (nn/simd.h) promise byte-identical results to the scalar
// reference kernels at every shape, including the awkward ones: output
// widths hitting every lane-tail residue, reduction depths from none to
// many packed terms, empty tensors, and non-finite values through the
// fused ReLU. Comparisons are bitwise (memcmp), not EXPECT_FLOAT_EQ
// — the contract is identity, not closeness. In a CONFCARD_SIMD=off
// build SetSimdEnabled(true) is a no-op and every case degenerates to
// scalar-vs-scalar, so the suite stays green there by construction.
#include "nn/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/mlp.h"
#include "nn/tensor.h"

namespace confcard {
namespace nn {
namespace {

// Tests flip the process-wide SIMD toggle; restore it on exit so test
// order never matters.
class SimdRestorer {
 public:
  SimdRestorer() : saved_(SimdEnabled()) {}
  ~SimdRestorer() { SetSimdEnabled(saved_); }

 private:
  bool saved_;
};

void ExpectBitIdentical(const Tensor& ref, const Tensor& got,
                        const char* what) {
  ASSERT_EQ(ref.rows(), got.rows()) << what;
  ASSERT_EQ(ref.cols(), got.cols()) << what;
  for (size_t i = 0; i < ref.size(); ++i) {
    uint32_t rb, gb;
    std::memcpy(&rb, &ref.data()[i], sizeof(rb));
    std::memcpy(&gb, &got.data()[i], sizeof(gb));
    ASSERT_EQ(rb, gb) << what << " element " << i << ": scalar "
                      << ref.data()[i] << " vs simd " << got.data()[i];
  }
}

// Dense random tensor with a controllable fraction of exact zeros so
// the kernels' zero-skip fast paths get exercised at both settings.
Tensor RandomTensor(size_t rows, size_t cols, double zero_fraction,
                    Rng& rng) {
  Tensor t = Tensor::Uninitialized(rows, cols);
  for (float& v : t.data()) {
    v = rng.NextDouble() < zero_fraction
            ? 0.0f
            : static_cast<float>(rng.NextGaussian());
  }
  return t;
}

// The shape sweep: every output-width residue modulo the compiled lane
// width (tail lanes 0..W-1), reduction depths covering the k==0 /
// k==1 / short / long p-loop cases, and empty tensors.
template <typename Fn>
void SweepShapes(const Fn& check) {
  const size_t w = SimdLaneWidth();
  std::vector<size_t> ms;
  for (size_t t = 0; t < w; ++t) ms.push_back(2 * w + t);  // m % w = t
  ms.push_back(1);
  ms.push_back(0);  // empty output
  const std::vector<size_t> ks = {0, 1, 7, 32};
  const std::vector<size_t> ns = {0, 1, 5, 8};
  for (size_t n : ns) {
    for (size_t k : ks) {
      for (size_t m : ms) check(n, k, m);
    }
  }
}

TEST(SimdKernelTest, MatMulBitIdenticalAcrossShapes) {
  SimdRestorer restore;
  Rng rng(1234);
  SweepShapes([&rng](size_t n, size_t k, size_t m) {
    // (n,k) x (k,m); half-zero A exercises the 4-row zero-skip.
    Tensor a = RandomTensor(n, k, 0.5, rng);
    Tensor b = RandomTensor(k, m, 0.0, rng);
    SetSimdEnabled(false);
    Tensor ref = MatMul(a, b);
    SetSimdEnabled(true);
    Tensor got = MatMul(a, b);
    ExpectBitIdentical(ref, got, "MatMul");
  });
}

TEST(SimdKernelTest, MatMulTransABitIdenticalAcrossShapes) {
  SimdRestorer restore;
  Rng rng(2345);
  SweepShapes([&rng](size_t n, size_t k, size_t m) {
    // (k,n) x (k,m) -> (n,m).
    Tensor a = RandomTensor(k, n, 0.5, rng);
    Tensor b = RandomTensor(k, m, 0.0, rng);
    SetSimdEnabled(false);
    Tensor ref = MatMulTransA(a, b);
    SetSimdEnabled(true);
    Tensor got = MatMulTransA(a, b);
    ExpectBitIdentical(ref, got, "MatMulTransA");
  });
}

TEST(SimdKernelTest, MatMulTransBBitIdenticalAcrossShapes) {
  SimdRestorer restore;
  Rng rng(3456);
  SweepShapes([&rng](size_t n, size_t k, size_t m) {
    // (n,k) x (m,k) -> (n,m): the vector path runs the tiled kernel
    // over B transposed, so m is the j-lane dimension and k the
    // packed-term dimension.
    Tensor a = RandomTensor(n, k, 0.0, rng);
    Tensor b = RandomTensor(m, k, 0.0, rng);
    SetSimdEnabled(false);
    Tensor ref = MatMulTransB(a, b);
    SetSimdEnabled(true);
    Tensor got = MatMulTransB(a, b);
    ExpectBitIdentical(ref, got, "MatMulTransB");
  });
}

// Rows of one-hot blocks, Naru's input layout: one 1.0f in each
// non-empty block of [0, cols/7), [cols/7, cols/2) and [cols/2, cols),
// and every fourth row all zero.
Tensor OneHotRows(size_t rows, size_t cols, Rng& rng) {
  Tensor t(rows, cols);
  const size_t starts[] = {0, cols / 7, cols / 2, cols};
  for (size_t r = 0; r < rows; ++r) {
    if (r % 4 == 3) continue;
    for (size_t b = 0; b < 3; ++b) {
      const size_t width = starts[b + 1] - starts[b];
      if (width == 0) continue;
      t.At(r, starts[b] + static_cast<size_t>(rng.NextDouble() * width)) =
          1.0f;
    }
  }
  return t;
}

// The register-tiled kernels against the scalar reference at the shapes
// their tiling splits on. The output widths cover 3-, 2- and 1-vector
// tiles and single scalar columns at AVX-512, AVX2 and SSE2/NEON
// widths; the row counts cover whole 4-row blocks, single-row tails and
// (166 rows) a long run of blocks ending in a two-row tail. The pool's
// row chunks are tested in tensor_test, above the flop threshold. The
// shared operand is one-hot rows, as in Naru's input layer, or half
// zeros, as in a ReLU layer's gradient.
TEST(SimdKernelTest, TiledKernelsBitIdenticalAtModelShapes) {
  SimdRestorer restore;
  Rng rng(8765);
  const size_t ms[] = {1,  5,  8,  15, 16, 23, 24, 25,
                       31, 33, 47, 49, 64, 96, 301};
  const size_t row_counts[] = {1, 3, 4, 5, 64, 166};
  for (size_t rows : row_counts) {
    for (size_t m : ms) {
      for (bool one_hot : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "rows " << rows << " m " << m
                                          << (one_hot ? " one-hot" : ""));
        const size_t k = one_hot ? 37 : 24;
        // MatMul: (rows, k) x (k, m).
        const Tensor a = one_hot ? OneHotRows(rows, k, rng)
                                 : RandomTensor(rows, k, 0.5, rng);
        const Tensor b = RandomTensor(k, m, 0.0, rng);
        // MatMulTransA: (k', rows)^T x (k', m), the weight-gradient
        // product over a batch of k' rows.
        const Tensor at = one_hot ? OneHotRows(k, rows, rng)
                                  : RandomTensor(k, rows, 0.5, rng);
        // MatMulTransB: (rows, k) x (m, k)^T, the input-gradient product.
        const Tensor bt = RandomTensor(m, k, 0.0, rng);
        SetSimdEnabled(false);
        const Tensor ref_mm = MatMul(a, b);
        const Tensor ref_ta = MatMulTransA(at, b);
        const Tensor ref_tb = MatMulTransB(a, bt);
        SetSimdEnabled(true);
        ExpectBitIdentical(ref_mm, MatMul(a, b), "MatMul");
        ExpectBitIdentical(ref_ta, MatMulTransA(at, b), "MatMulTransA");
        ExpectBitIdentical(ref_tb, MatMulTransB(a, bt), "MatMulTransB");
      }
    }
  }
}

TEST(SimdKernelTest, ApplyActivatedBitIdenticalIncludingNonFinite) {
  SimdRestorer restore;
  Rng rng(4567);
  const size_t w = SimdLaneWidth();
  for (size_t m : {2 * w + 1, 2 * w + w - 1, size_t{3}}) {
    Dense dense(6, m, rng);
    // Bias sweep must reproduce the scalar clamp on the values the
    // clamp treats specially: -0.0 passes through, NaN stays NaN.
    dense.bias().value.data()[0] = -0.0f;
    if (m > 1) dense.bias().value.data()[1] = 10.0f;
    Tensor in = RandomTensor(9, 6, 0.3, rng);
    in.data()[0] = std::nanf("");
    in.data()[7] = -0.0f;
    for (bool relu : {true, false}) {
      SetSimdEnabled(false);
      Tensor ref = dense.ApplyActivated(in, relu);
      SetSimdEnabled(true);
      Tensor got = dense.ApplyActivated(in, relu);
      ExpectBitIdentical(ref, got, relu ? "ApplyActivated+relu"
                                        : "ApplyActivated");
    }
  }
}

TEST(SimdKernelTest, ApplyActivatedMatchesApplyThenRelu) {
  // The documented fusion identity, now across both kernel paths.
  SimdRestorer restore;
  Rng rng(5678);
  Dense dense(8, 13, rng);
  Tensor in = RandomTensor(10, 8, 0.2, rng);
  Relu relu_layer;
  for (bool simd : {false, true}) {
    SetSimdEnabled(simd);
    Tensor fused = dense.ApplyActivated(in, /*relu=*/true);
    Tensor staged = relu_layer.Apply(dense.Apply(in));
    ExpectBitIdentical(staged, fused, "fusion identity");
  }
}

TEST(SimdKernelTest, MlpApplyFusedMatchesScalarApply) {
  // The estimators' batched forward (ApplyFused) against the plain layer
  // chain on scalar kernels, through two hidden layers whose widths
  // leave lane tails.
  SimdRestorer restore;
  Rng rng(7890);
  Mlp mlp({13, 19, 11, 3}, rng);
  Tensor in = RandomTensor(7, 13, 0.2, rng);
  SetSimdEnabled(false);
  const Tensor ref = mlp.Apply(in);
  for (bool simd : {false, true}) {
    SetSimdEnabled(simd);
    ExpectBitIdentical(ref, mlp.ApplyFused(in), "Mlp::ApplyFused");
  }
}

TEST(SimdKernelTest, SparseOneHotGathersBitIdentical) {
  SimdRestorer restore;
  Rng rng(6789);
  const size_t w = SimdLaneWidth();
  const size_t in_dim = 24;
  const size_t out_dim = 3 * w + 1;  // forces a j-tail in every sweep
  // All-ones mask so the gather covers every weight row.
  Tensor ones(in_dim, out_dim);
  ones.Fill(1.0f);
  MaskedDense dense_layer(in_dim, out_dim, ones, rng);

  // Block-sparse rows: ascending indices, varying nnz (incl. empty).
  const size_t rows = 7;
  std::vector<uint32_t> indices;
  std::vector<size_t> offsets = {0};
  Rng idx_rng(42);
  for (size_t r = 0; r < rows; ++r) {
    const size_t nnz = r % 4;  // 0..3 set bits per row
    uint32_t base = 0;
    for (size_t t = 0; t < nnz; ++t) {
      base += 1 + static_cast<uint32_t>(idx_rng.NextDouble() * 5);
      indices.push_back(std::min<uint32_t>(base, in_dim - 1));
    }
    offsets.push_back(indices.size());
  }
  SparseRows sparse;
  sparse.rows = rows;
  sparse.cols = in_dim;
  sparse.indices = indices.data();
  sparse.row_offsets = offsets.data();

  SetSimdEnabled(false);
  Tensor ref_full = dense_layer.ApplyOneHot(sparse);
  Tensor ref_cols = dense_layer.ApplyOneHotCols(sparse, 2, 2 + w + 1);
  SetSimdEnabled(true);
  Tensor got_full = dense_layer.ApplyOneHot(sparse);
  Tensor got_cols = dense_layer.ApplyOneHotCols(sparse, 2, 2 + w + 1);
  ExpectBitIdentical(ref_full, got_full, "ApplyOneHot");
  ExpectBitIdentical(ref_cols, got_cols, "ApplyOneHotCols");

  // Dense column-slice path (Naru's per-block output softmax input).
  Tensor dense_in = RandomTensor(rows, in_dim, 0.6, rng);
  SetSimdEnabled(false);
  Tensor ref_slice = dense_layer.ApplyCols(dense_in, 1, out_dim - 2);
  SetSimdEnabled(true);
  Tensor got_slice = dense_layer.ApplyCols(dense_in, 1, out_dim - 2);
  ExpectBitIdentical(ref_slice, got_slice, "ApplyCols");
}

TEST(SimdKernelTest, RuntimeControlsReportCompiledState) {
  SimdRestorer restore;
  // The ISA name is one of the five known strings and agrees with the
  // compiled lane width.
  const std::string isa = SimdIsaName();
  const size_t w = SimdLaneWidth();
  if (isa == "avx512") {
    EXPECT_EQ(w, 16u);
  } else if (isa == "avx2") {
    EXPECT_EQ(w, 8u);
  } else if (isa == "sse2" || isa == "neon") {
    EXPECT_EQ(w, 4u);
  } else {
    EXPECT_EQ(isa, "scalar");
    EXPECT_EQ(w, 1u);
  }
  EXPECT_EQ(SimdCompiledIn(), w > 1);
  SetSimdEnabled(false);
  EXPECT_FALSE(SimdEnabled());
  SetSimdEnabled(true);
  EXPECT_EQ(SimdEnabled(), SimdCompiledIn());
}

}  // namespace
}  // namespace nn
}  // namespace confcard
