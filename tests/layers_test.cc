#include "nn/layers.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include <gtest/gtest.h>

#include "nn/mlp.h"

namespace confcard {
namespace nn {
namespace {

// Scalar objective: weighted sum of outputs. The weights decorrelate
// output coordinates so gradient errors cannot cancel.
double Objective(Layer& layer, const Tensor& input, const Tensor& weights) {
  Tensor out = layer.Forward(input);
  double total = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    total += static_cast<double>(out.data()[i]) * weights.data()[i];
  }
  return total;
}

// Finite-difference check of dObjective/dParam against backprop for
// every parameter entry.
void CheckParameterGradients(Layer& layer, const Tensor& input,
                             size_t out_rows, size_t out_cols,
                             float tolerance = 2e-2f) {
  Rng rng(99);
  Tensor weights = Tensor::Randn(out_rows, out_cols, 1.0f, rng);

  // Analytic gradients.
  for (Parameter* p : layer.Parameters()) p->grad.Fill(0.0f);
  layer.Forward(input);
  layer.Backward(weights);

  const float eps = 1e-2f;
  for (Parameter* p : layer.Parameters()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      double up = Objective(layer, input, weights);
      p->value.data()[i] = orig - eps;
      double down = Objective(layer, input, weights);
      p->value.data()[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = p->grad.data()[i];
      EXPECT_NEAR(analytic, numeric,
                  tolerance * std::max(1.0, std::fabs(numeric)))
          << "param entry " << i;
    }
  }
}

// Same for input gradients.
void CheckInputGradients(Layer& layer, const Tensor& input, size_t out_rows,
                         size_t out_cols, float tolerance = 2e-2f) {
  Rng rng(98);
  Tensor weights = Tensor::Randn(out_rows, out_cols, 1.0f, rng);
  for (Parameter* p : layer.Parameters()) p->grad.Fill(0.0f);
  layer.Forward(input);
  Tensor grad_in = layer.Backward(weights);

  const float eps = 1e-2f;
  Tensor x = input;
  for (size_t i = 0; i < x.size(); ++i) {
    const float orig = x.data()[i];
    x.data()[i] = orig + eps;
    double up = Objective(layer, x, weights);
    x.data()[i] = orig - eps;
    double down = Objective(layer, x, weights);
    x.data()[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(grad_in.data()[i], numeric,
                tolerance * std::max(1.0, std::fabs(numeric)))
        << "input entry " << i;
  }
}

TEST(DenseTest, ForwardComputesAffine) {
  Rng rng(1);
  Dense d(2, 1, rng);
  d.weight().value.At(0, 0) = 2.0f;
  d.weight().value.At(1, 0) = -1.0f;
  d.bias().value.At(0, 0) = 0.5f;
  Tensor in(1, 2);
  in.At(0, 0) = 3.0f;
  in.At(0, 1) = 4.0f;
  Tensor out = d.Forward(in);
  EXPECT_FLOAT_EQ(out.At(0, 0), 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(DenseTest, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Dense d(3, 4, rng);
  Tensor in = Tensor::Randn(5, 3, 1.0f, rng);
  CheckParameterGradients(d, in, 5, 4);
  CheckInputGradients(d, in, 5, 4);
}

TEST(ReluTest, ForwardClampsNegatives) {
  Relu r;
  Tensor in(1, 3);
  in.At(0, 0) = -1.0f;
  in.At(0, 1) = 0.0f;
  in.At(0, 2) = 2.0f;
  Tensor out = r.Forward(in);
  EXPECT_FLOAT_EQ(out.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.At(0, 1), 0.0f);
  EXPECT_FLOAT_EQ(out.At(0, 2), 2.0f);
}

TEST(ReluTest, BackwardMasksGradient) {
  Relu r;
  Tensor in(1, 2);
  in.At(0, 0) = -1.0f;
  in.At(0, 1) = 3.0f;
  r.Forward(in);
  Tensor g(1, 2);
  g.Fill(1.0f);
  Tensor gi = r.Backward(g);
  EXPECT_FLOAT_EQ(gi.At(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(gi.At(0, 1), 1.0f);
}

TEST(MaskedDenseTest, MaskedWeightsAreZero) {
  Rng rng(3);
  Tensor mask(2, 2);
  mask.At(0, 0) = 1.0f;  // only (0,0) connected
  MaskedDense md(2, 2, mask, rng);
  // Masked entries must be exactly zero after construction.
  EXPECT_EQ(md.Parameters()[0]->value.At(0, 1), 0.0f);
  EXPECT_EQ(md.Parameters()[0]->value.At(1, 0), 0.0f);
  EXPECT_EQ(md.Parameters()[0]->value.At(1, 1), 0.0f);
}

TEST(MaskedDenseTest, MaskedGradientsAreZero) {
  Rng rng(4);
  Tensor mask(3, 2);
  mask.At(0, 0) = 1.0f;
  mask.At(2, 1) = 1.0f;
  MaskedDense md(3, 2, mask, rng);
  Tensor in = Tensor::Randn(4, 3, 1.0f, rng);
  md.Forward(in);
  Tensor g = Tensor::Randn(4, 2, 1.0f, rng);
  md.Backward(g);
  const Tensor& wg = md.Parameters()[0]->grad;
  EXPECT_EQ(wg.At(0, 1), 0.0f);
  EXPECT_EQ(wg.At(1, 0), 0.0f);
  EXPECT_EQ(wg.At(1, 1), 0.0f);
  EXPECT_EQ(wg.At(2, 0), 0.0f);
  EXPECT_NE(wg.At(0, 0), 0.0f);
}

TEST(MaskedDenseTest, GradientsMatchFiniteDifferences) {
  Rng rng(5);
  Tensor mask(3, 3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j <= i; ++j) mask.At(i, j) = 1.0f;
  }
  MaskedDense md(3, 3, mask, rng);
  Tensor in = Tensor::Randn(4, 3, 1.0f, rng);
  CheckInputGradients(md, in, 4, 3);

  // Parameter FD check, skipping masked weight entries: the analytic
  // gradient is the mask-projected gradient, which intentionally
  // disagrees with FD along forbidden directions.
  Rng wrng(99);
  Tensor weights = Tensor::Randn(4, 3, 1.0f, wrng);
  for (Parameter* p : md.Parameters()) p->grad.Fill(0.0f);
  md.Forward(in);
  md.Backward(weights);
  const float eps = 1e-2f;
  Parameter* w = md.Parameters()[0];
  for (size_t i = 0; i < w->value.size(); ++i) {
    if (md.mask().data()[i] == 0.0f) continue;
    const float orig = w->value.data()[i];
    w->value.data()[i] = orig + eps;
    double up = Objective(md, in, weights);
    w->value.data()[i] = orig - eps;
    double down = Objective(md, in, weights);
    w->value.data()[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(w->grad.data()[i], numeric,
                2e-2 * std::max(1.0, std::fabs(numeric)));
  }
}

TEST(SequentialTest, ComposesLayers) {
  Rng rng(6);
  Sequential seq;
  seq.Append(std::make_unique<Dense>(2, 4, rng));
  seq.Append(std::make_unique<Relu>());
  seq.Append(std::make_unique<Dense>(4, 1, rng));
  EXPECT_EQ(seq.num_layers(), 3u);
  EXPECT_EQ(seq.Parameters().size(), 4u);
  Tensor in = Tensor::Randn(3, 2, 1.0f, rng);
  Tensor out = seq.Forward(in);
  EXPECT_EQ(out.rows(), 3u);
  EXPECT_EQ(out.cols(), 1u);
}

TEST(SequentialTest, GradientsMatchFiniteDifferences) {
  Rng rng(7);
  Sequential seq;
  seq.Append(std::make_unique<Dense>(3, 5, rng));
  seq.Append(std::make_unique<Relu>());
  seq.Append(std::make_unique<Dense>(5, 2, rng));
  Tensor in = Tensor::Randn(4, 3, 1.0f, rng);
  CheckParameterGradients(seq, in, 4, 2, 5e-2f);
  CheckInputGradients(seq, in, 4, 2, 5e-2f);
}

TEST(MlpTest, ShapeAndGradientDescentDirection) {
  // Deep ReLU stacks make finite differences unreliable near kinks, so
  // instead of FD we check the defining property of the gradient: a
  // small step against it reduces the objective.
  Rng rng(8);
  Mlp mlp({3, 6, 4, 1}, rng);
  EXPECT_EQ(mlp.in_dim(), 3u);
  EXPECT_EQ(mlp.out_dim(), 1u);
  Tensor in = Tensor::Randn(8, 3, 1.0f, rng);
  Tensor weights = Tensor::Randn(8, 1, 1.0f, rng);

  double before = Objective(mlp, in, weights);
  for (Parameter* p : mlp.Parameters()) p->grad.Fill(0.0f);
  mlp.Forward(in);
  mlp.Backward(weights);
  const float step = 1e-3f;
  for (Parameter* p : mlp.Parameters()) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      p->value.data()[i] -= step * p->grad.data()[i];
    }
  }
  double after = Objective(mlp, in, weights);
  EXPECT_LT(after, before);
}

// BackwardParams against Backward on two copies of the same layer: the
// same forward and two backward passes (so the gradients accumulate)
// must leave every parameter gradient bit-equal. `make` builds the
// layer from a seeded Rng; the input has exact zeros and one-hot-like
// rows so the GEMM zero skips run.
void ExpectParamsOnlyBackwardMatches(
    const std::function<std::unique_ptr<Layer>(Rng&)>& make, size_t rows,
    size_t in_dim, size_t out_dim) {
  Rng rng_a(11), rng_b(11);
  std::unique_ptr<Layer> full = make(rng_a);
  std::unique_ptr<Layer> params_only = make(rng_b);
  Rng data(12);
  Tensor in = Tensor::Randn(rows, in_dim, 1.0f, data);
  for (size_t i = 0; i < in.size(); i += 3) in.data()[i] = 0.0f;
  for (size_t c = 0; c < in_dim; ++c) in.At(0, c) = c == 1 ? 1.0f : 0.0f;
  for (int pass = 0; pass < 2; ++pass) {
    Tensor g = Tensor::Randn(rows, out_dim, 1.0f, data);
    full->Forward(in);
    params_only->Forward(in);
    full->Backward(g);
    params_only->BackwardParams(g);
  }
  std::vector<Parameter*> a = full->Parameters();
  std::vector<Parameter*> b = params_only->Parameters();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i]->grad.size(), b[i]->grad.size());
    EXPECT_EQ(std::memcmp(a[i]->grad.data().data(), b[i]->grad.data().data(),
                          a[i]->grad.size() * sizeof(float)),
              0)
        << "parameter " << i;
  }
}

TEST(BackwardParamsTest, DenseMatchesFullBackward) {
  ExpectParamsOnlyBackwardMatches(
      [](Rng& rng) { return std::make_unique<Dense>(13, 9, rng); }, 10, 13,
      9);
}

TEST(BackwardParamsTest, MaskedDenseMatchesFullBackward) {
  ExpectParamsOnlyBackwardMatches(
      [](Rng& rng) {
        Tensor mask(13, 9);
        for (size_t i = 0; i < mask.size(); ++i) {
          mask.data()[i] = i % 3 == 0 ? 0.0f : 1.0f;
        }
        return std::make_unique<MaskedDense>(13, 9, std::move(mask), rng);
      },
      10, 13, 9);
}

TEST(BackwardParamsTest, MlpMatchesFullBackward) {
  ExpectParamsOnlyBackwardMatches(
      [](Rng& rng) {
        return std::make_unique<Mlp>(std::vector<size_t>{13, 17, 9, 3}, rng);
      },
      10, 13, 3);
}

TEST(BackwardParamsTest, SequentialMatchesFullBackward) {
  ExpectParamsOnlyBackwardMatches(
      [](Rng& rng) {
        auto seq = std::make_unique<Sequential>();
        Tensor mask(13, 17);
        mask.Fill(1.0f);
        seq->Append(
            std::make_unique<MaskedDense>(13, 17, std::move(mask), rng));
        seq->Append(std::make_unique<Relu>());
        seq->Append(std::make_unique<Dense>(17, 5, rng));
        return seq;
      },
      10, 13, 5);
}

}  // namespace
}  // namespace nn
}  // namespace confcard
