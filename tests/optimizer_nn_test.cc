#include "nn/optimizer.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "nn/simd.h"

namespace confcard {
namespace nn {
namespace {

// Minimize f(w) = (w - 3)^2 via gradients fed manually.
template <typename Opt>
double MinimizeQuadratic(Opt& opt, Parameter& p, int steps) {
  for (int i = 0; i < steps; ++i) {
    p.grad.At(0, 0) = 2.0f * (p.value.At(0, 0) - 3.0f);
    opt.Step();
  }
  return p.value.At(0, 0);
}

TEST(SgdTest, ConvergesOnQuadratic) {
  Parameter p;
  p.value = Tensor(1, 1);
  p.grad = Tensor(1, 1);
  Sgd sgd({&p}, 0.1);
  double w = MinimizeQuadratic(sgd, p, 200);
  EXPECT_NEAR(w, 3.0, 1e-3);
}

TEST(SgdTest, MomentumAccelerates) {
  Parameter a, b;
  a.value = Tensor(1, 1);
  a.grad = Tensor(1, 1);
  b.value = Tensor(1, 1);
  b.grad = Tensor(1, 1);
  Sgd plain({&a}, 0.01);
  Sgd mom({&b}, 0.01, 0.9);
  MinimizeQuadratic(plain, a, 50);
  MinimizeQuadratic(mom, b, 50);
  EXPECT_LT(std::fabs(b.value.At(0, 0) - 3.0),
            std::fabs(a.value.At(0, 0) - 3.0));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Parameter p;
  p.value = Tensor(1, 1);
  p.grad = Tensor(1, 1);
  Adam adam({&p}, 0.1);
  double w = MinimizeQuadratic(adam, p, 500);
  EXPECT_NEAR(w, 3.0, 1e-2);
}

TEST(AdamTest, StepZeroesGradients) {
  Parameter p;
  p.value = Tensor(1, 1);
  p.grad = Tensor(1, 1);
  p.grad.At(0, 0) = 1.0f;
  Adam adam({&p}, 0.01);
  adam.Step();
  EXPECT_EQ(p.grad.At(0, 0), 0.0f);
}

TEST(OptimizerTest, ZeroGradClears) {
  Parameter p;
  p.value = Tensor(2, 2);
  p.grad = Tensor(2, 2);
  p.grad.Fill(3.0f);
  Sgd sgd({&p}, 0.1);
  sgd.ZeroGrad();
  for (float v : p.grad.data()) EXPECT_EQ(v, 0.0f);
}

// Integration: an MLP trained with Adam must fit a noiseless linear
// function to near-zero error.
TEST(TrainingIntegrationTest, MlpFitsLinearFunction) {
  Rng rng(23);
  Mlp mlp({2, 16, 1}, rng);
  Adam adam(mlp.Parameters(), 5e-3);

  const size_t n = 256;
  Tensor x = Tensor::Randn(n, 2, 1.0f, rng);
  std::vector<float> y(n);
  for (size_t i = 0; i < n; ++i) {
    y[i] = 2.0f * x.At(i, 0) - 1.0f * x.At(i, 1) + 0.5f;
  }

  double final_loss = 1e9;
  for (int epoch = 0; epoch < 400; ++epoch) {
    Tensor pred = mlp.Forward(x);
    Tensor grad;
    final_loss = MseLoss(pred, y, &grad);
    mlp.Backward(grad);
    adam.Step();
  }
  EXPECT_LT(final_loss, 1e-2);
}

// The pinball loss must drive an MLP toward the conditional quantile,
// not the mean: with asymmetric noise the tau=0.9 fit sits above the
// tau=0.1 fit.
TEST(TrainingIntegrationTest, PinballLearnsQuantiles) {
  Rng rng(29);
  auto train = [&](double tau) {
    Rng local(31);
    Mlp mlp({1, 8, 1}, local);
    Adam adam(mlp.Parameters(), 1e-2);
    const size_t n = 512;
    Tensor x(n, 1);
    std::vector<float> y(n);
    for (size_t i = 0; i < n; ++i) {
      x.At(i, 0) = static_cast<float>(local.NextDouble());
      y[i] = static_cast<float>(10.0 * local.NextDouble());  // U[0,10]
    }
    for (int epoch = 0; epoch < 300; ++epoch) {
      Tensor pred = mlp.Forward(x);
      Tensor grad;
      PinballLoss(pred, y, tau, &grad);
      mlp.Backward(grad);
      adam.Step();
    }
    Tensor probe(1, 1);
    probe.At(0, 0) = 0.5f;
    return static_cast<double>(mlp.Forward(probe).At(0, 0));
  };
  double hi = train(0.9);
  double lo = train(0.1);
  EXPECT_GT(hi, lo + 3.0);  // quantiles of U[0,10] are ~9 vs ~1
}

// The vector Adam step against its ScalarLanes instantiation (the
// scalar reference the SIMD toggle selects): two copies of the same
// parameters take 200 steps on the same gradients, one with SIMD off
// and one with it on, and every weight must match bit for bit after
// every step. The sizes put 0, 1 and several whole vectors before each
// scalar tail; half the gradients are Gaussian, the rest exact zeros,
// values whose square underflows, subnormals and large values. In a
// CONFCARD_SIMD=off build both copies run the scalar path.
TEST(AdamTest, VectorStepBitIdenticalToScalarLanes) {
  const bool saved = SimdEnabled();
  const std::vector<size_t> sizes = {1, 7, 8, 9, 65, 9219};
  Rng rng(2024);
  std::vector<Parameter> scalar(sizes.size()), vec(sizes.size());
  std::vector<Parameter*> scalar_ptrs, vec_ptrs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    scalar[i].value = Tensor::Randn(1, sizes[i], 1.0f, rng);
    scalar[i].grad = Tensor(1, sizes[i]);
    vec[i].value = scalar[i].value;
    vec[i].grad = Tensor(1, sizes[i]);
    scalar_ptrs.push_back(&scalar[i]);
    vec_ptrs.push_back(&vec[i]);
  }
  Adam scalar_adam(scalar_ptrs, 1e-2);
  Adam vec_adam(vec_ptrs, 1e-2);
  const float kinds[] = {0.0f, 1e-30f, 1e-40f, 1e15f, -4e17f};
  for (int step = 0; step < 200; ++step) {
    for (size_t i = 0; i < sizes.size(); ++i) {
      for (size_t j = 0; j < sizes[i]; ++j) {
        const double u = rng.NextDouble();
        const float g = u < 0.5 ? static_cast<float>(rng.NextGaussian())
                                : kinds[static_cast<size_t>(u * 10) - 5] *
                                      (step % 2 == 0 ? 1.0f : -1.0f);
        scalar[i].grad.data()[j] = g;
        vec[i].grad.data()[j] = g;
      }
    }
    SetSimdEnabled(false);
    scalar_adam.Step();
    SetSimdEnabled(true);
    vec_adam.Step();
    for (size_t i = 0; i < sizes.size(); ++i) {
      ASSERT_EQ(std::memcmp(scalar[i].value.data().data(),
                            vec[i].value.data().data(),
                            sizes[i] * sizeof(float)),
                0)
          << "size " << sizes[i] << " step " << step;
      for (size_t j = 0; j < sizes[i]; ++j) {
        ASSERT_EQ(vec[i].grad.data()[j], 0.0f);
      }
    }
  }
  SetSimdEnabled(saved);
}

}  // namespace
}  // namespace nn
}  // namespace confcard
