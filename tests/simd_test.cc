// Scalar-vs-SIMD bit identity of every vectorized kernel. The vector
// paths (nn/simd.h) promise byte-identical results to the scalar
// reference kernels at every shape, including the awkward ones: output
// widths hitting every lane-tail residue, reduction depths from none to
// many kept terms, empty tensors, and non-finite values through the
// fused ReLU. Comparisons are bitwise (memcmp), not EXPECT_FLOAT_EQ
// — the contract is identity, not closeness. In a CONFCARD_SIMD=off
// build SetSimdEnabled(true) is a no-op and every case degenerates to
// scalar-vs-scalar, so the suite stays green there by construction.
#include "nn/simd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
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

// A gradient accumulator for AddMatMulTransA to add into: random
// values, with +0.0, -0.0, NaN and subnormals strewn among them.
Tensor SpecialAccumulator(size_t rows, size_t cols, Rng& rng) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float specials[] = {0.0f, -0.0f, std::nanf(""), denorm, -denorm,
                            -3e-39f};
  Tensor t = RandomTensor(rows, cols, 0.0, rng);
  for (float& v : t.data()) {
    if (rng.NextDouble() < 0.5) v = specials[rng.NextUint64(6)];
  }
  return t;
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
    // The C += store: C.Add(MatMulTransA(a, b)) on the scalar kernel,
    // against the tiled kernel adding into C on either lane set.
    const Tensor c = SpecialAccumulator(n, m, rng);
    Tensor want = c;
    want.Add(ref);
    for (bool simd : {false, true}) {
      SetSimdEnabled(simd);
      Tensor sum = c;
      AddMatMulTransA(a, b, &sum);
      ExpectBitIdentical(want, sum, simd ? "AddMatMulTransA simd"
                                         : "AddMatMulTransA scalar");
    }
  });
}

TEST(SimdKernelTest, MatMulTransBBitIdenticalAcrossShapes) {
  SimdRestorer restore;
  Rng rng(3456);
  auto check = [&rng](size_t n, size_t k, size_t m) {
    // (n,k) x (m,k) -> (n,m): the vector path runs the tiled kernel
    // over B transposed, so m is the j-lane dimension and k the
    // kept-term dimension.
    Tensor a = RandomTensor(n, k, 0.0, rng);
    Tensor b = RandomTensor(m, k, 0.0, rng);
    SetSimdEnabled(false);
    Tensor ref = MatMulTransB(a, b);
    SetSimdEnabled(true);
    Tensor got = MatMulTransB(a, b);
    ExpectBitIdentical(ref, got, "MatMulTransB");
  };
  SweepShapes(check);
  // B shapes (m, k) off the 8 x 8 transpose blocks: all tail, tails on
  // both sides of whole blocks, and the model shapes around them.
  const std::pair<size_t, size_t> b_shapes[] = {
      {1, 1}, {7, 9}, {17, 33}, {96, 288}, {301, 64}};
  for (const auto& [m, k] : b_shapes) {
    SCOPED_TRACE(::testing::Message() << "B " << m << " x " << k);
    for (size_t n : {1, 5, 64}) check(n, k, m);
  }
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

// A^T for the MatMulTransA operands below: the kernels' 4-row blocks of
// A'(i, p) = A(p, i) are then the blocks each generator lays out.
Tensor Transposed(const Tensor& t) {
  Tensor out = Tensor::Uninitialized(t.cols(), t.rows());
  for (size_t r = 0; r < t.rows(); ++r) {
    for (size_t c = 0; c < t.cols(); ++c) out.At(c, r) = t.At(r, c);
  }
  return out;
}

// The shared operand A'(rows, k) of the tiled kernels, drawn so the
// kept-term scan meets every case of the zero skip: one-hot rows
// (Naru's input layer), half zeros (a ReLU layer's gradient),
// Bernoulli-0.2 bitmaps (MSCN's sample bitmaps), blocks of four rows
// where a strict, nonempty subset is zero at every term, and values
// the skip must not mistake for zero or for nonzero: NaN (in every
// eighth row, so other rows stay finite), +0.0, -0.0 and subnormals.
// kLaneGroups lays the terms out in groups of the lane width, W, the
// span of one ORed nonzero mask in the scan: a group with every term
// nonzero, then one whose term z is zero in every row, then one whose
// only nonzero value is a NaN, over and over.
enum class Fill {
  kOneHot,
  kHalfZero,
  kBitmap,
  kPartialBlocks,
  kSpecial,
  kLaneGroups
};

Tensor Operand(Fill fill, size_t rows, size_t k, Rng& rng) {
  switch (fill) {
    case Fill::kOneHot:
      return OneHotRows(rows, k, rng);
    case Fill::kHalfZero:
      return RandomTensor(rows, k, 0.5, rng);
    case Fill::kBitmap: {
      Tensor t(rows, k);
      for (float& v : t.data()) v = rng.NextDouble() < 0.2 ? 1.0f : 0.0f;
      return t;
    }
    case Fill::kPartialBlocks: {
      Tensor t = RandomTensor(rows, k, 0.0, rng);
      for (size_t b = 0; b < rows; b += 4) {
        for (size_t p = 0; p < k; ++p) {
          const uint64_t zero_rows = 1 + rng.NextUint64(14);  // 1..14
          for (size_t r = b; r < std::min(rows, b + 4); ++r) {
            if (zero_rows >> (r - b) & 1) t.At(r, p) = 0.0f;
          }
        }
      }
      return t;
    }
    case Fill::kSpecial: {
      const float denorm = std::numeric_limits<float>::denorm_min();
      const float specials[] = {0.0f,   -0.0f,   0.0f,   -0.0f,
                                denorm, -denorm, 1e-40f, -3e-39f};
      Tensor t = RandomTensor(rows, k, 0.0, rng);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t p = 0; p < k; ++p) {
          const double u = rng.NextDouble();
          if (r % 8 == 1 && u < 0.05) {
            t.At(r, p) = std::nanf("");
          } else if (u < 0.75) {
            t.At(r, p) = specials[rng.NextUint64(8)];
          }
        }
      }
      return t;
    }
    case Fill::kLaneGroups: {
      const size_t w = SimdLaneWidth();
      Tensor t = RandomTensor(rows, k, 0.0, rng);
      for (size_t p = 0; p < k; ++p) {
        const size_t group = p / w, lane = p % w;
        const size_t z = group % w;  // the group's marked lane
        for (size_t r = 0; r < rows; ++r) {
          float& v = t.At(r, p);
          if (v == 0.0f) v = 1.0f;  // the full group stays full
          if (group % 3 == 1 && lane == z) v = 0.0f;
          if (group % 3 == 2) {
            v = lane == z && r % 4 == 1 ? std::nanf("") : 0.0f;
          }
        }
      }
      return t;
    }
  }
  return Tensor();
}

// The register-tiled kernels against the scalar reference at the shapes
// their tiling and term scan split on. The output widths cover 3-, 2-
// and 1-vector tiles and single scalar columns at AVX-512, AVX2 and
// SSE2/NEON widths; the row counts cover whole 4-row blocks, single-row
// tails, the 4-block groups of MatMulTransA's scan at 16 lanes (17, 33)
// and (166 rows) a long run of blocks ending in a two-row tail. The
// term counts k cover the scan's whole vectors and its one-by-one tail
// at every lane width, up to Naru's 301 bins. The pool's row chunks are
// tested in tensor_test, above the flop threshold.
TEST(SimdKernelTest, TiledKernelsBitIdenticalAtModelShapes) {
  SimdRestorer restore;
  Rng rng(8765);
  auto check = [&rng](size_t rows, size_t k, size_t m, Fill fill) {
    SCOPED_TRACE(::testing::Message()
                 << "rows " << rows << " k " << k << " m " << m << " fill "
                 << static_cast<int>(fill));
    // MatMul: (rows, k) x (k, m).
    const Tensor a = Operand(fill, rows, k, rng);
    const Tensor b = RandomTensor(k, m, 0.0, rng);
    // MatMulTransA: (k, rows)^T x (k, m), the weight-gradient product
    // over a batch of k rows.
    const Tensor at = Transposed(Operand(fill, rows, k, rng));
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
  };
  const size_t row_counts[] = {1, 3, 4, 5, 17, 33, 64, 166};
  // Every tile split, at the historical term counts.
  const size_t ms[] = {1,  5,  8,  15, 16, 23, 24, 25,
                       31, 33, 47, 49, 64, 96, 301};
  for (size_t rows : row_counts) {
    for (size_t m : ms) {
      check(rows, 37, m, Fill::kOneHot);
      check(rows, 24, m, Fill::kHalfZero);
    }
  }
  // Every term count and operand fill, at one width per tile kind.
  const size_t ks[] = {1, 15, 16, 17, 31, 32, 33, 58, 66, 301};
  const Fill fills[] = {Fill::kOneHot,  Fill::kHalfZero,
                        Fill::kBitmap,  Fill::kPartialBlocks,
                        Fill::kSpecial, Fill::kLaneGroups};
  for (size_t rows : row_counts) {
    for (size_t k : ks) {
      for (Fill fill : fills) {
        for (size_t m : {size_t{5}, size_t{33}, size_t{49}}) {
          check(rows, k, m, fill);
        }
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
  for (bool simd : {false, true}) {
    SetSimdEnabled(simd);
    Tensor fused = dense.ApplyActivated(in, /*relu=*/true);
    Tensor staged = dense.Apply(in);
    for (float& v : staged.data()) v = v < 0.0f ? 0.0f : v;
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

TEST(SimdKernelTest, ApplyColsBitIdenticalToApplyOnOneHotAndRandomRows) {
  // The column-slice forward (Naru's per-block output softmax input): the
  // hidden layers, then the tiled kernel over a column range, on either
  // lane set, against the matching columns of the scalar Apply — with no
  // hidden layer (Dense::ApplyCols alone), one and two.
  SimdRestorer restore;
  Rng rng(6789);
  const size_t w = SimdLaneWidth();
  const size_t in_dim = 24;
  const size_t out_dim = 3 * w + 1;  // forces a j-tail in every sweep
  // Hidden widths that leave lane tails.
  const std::vector<std::vector<size_t>> dims = {
      {in_dim, out_dim}, {in_dim, 19, out_dim}, {in_dim, 19, 11, out_dim}};
  std::vector<Mlp> nets;
  for (const std::vector<size_t>& d : dims) nets.emplace_back(d, rng);

  // Block one-hot rows as the sampler builds them: ascending set bits,
  // 0..3 per row (an all-zero row included); then random rows.
  std::vector<Tensor> inputs;
  Tensor one_hot(7, in_dim);
  Rng idx_rng(42);
  for (size_t r = 0; r < one_hot.rows(); ++r) {
    size_t base = 0;
    for (size_t t = 0; t < r % 4; ++t) {
      base += 1 + static_cast<size_t>(idx_rng.NextDouble() * 5);
      one_hot.At(r, std::min(base, in_dim - 1)) = 1.0f;
    }
  }
  inputs.push_back(one_hot);
  for (size_t n : {1, 2, 3, 4, 5, 64}) {
    inputs.push_back(RandomTensor(n, in_dim, 0.6, rng));
  }

  // The ranges start and end inside a vector, span one vector's
  // interior, cover every column, or are empty.
  const std::pair<size_t, size_t> ranges[] = {
      {1, out_dim - 2}, {2, 3 + w / 2}, {w - 1, 2 * w + 1}, {0, out_dim},
      {3, 3}};
  for (size_t h = 0; h < nets.size(); ++h) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      const Tensor& dense_in = inputs[i];
      const size_t n = dense_in.rows();
      SetSimdEnabled(false);
      const Tensor full = nets[h].Apply(dense_in);
      for (const auto& [c0, c1] : ranges) {
        SCOPED_TRACE(::testing::Message()
                     << h << " hidden layers, "
                     << (i == 0 ? "one-hot" : "random") << " rows " << n
                     << " cols [" << c0 << ", " << c1 << ")");
        Tensor want(n, c1 - c0);
        for (size_t r = 0; r < n; ++r) {
          for (size_t c = c0; c < c1; ++c) want.At(r, c - c0) = full.At(r, c);
        }
        for (bool simd : {false, true}) {
          SetSimdEnabled(simd);
          ExpectBitIdentical(want, nets[h].ApplyCols(dense_in, c0, c1),
                             simd ? "ApplyCols simd" : "ApplyCols scalar");
        }
        SetSimdEnabled(false);
      }
    }
  }
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
