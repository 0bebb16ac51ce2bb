#include "nn/mlp.h"

#include <memory>

#include "common/check.h"

namespace confcard {
namespace nn {

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng) {
  CONFCARD_CHECK(dims.size() >= 2);
  in_dim_ = dims.front();
  out_dim_ = dims.back();
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    auto dense = std::make_unique<Dense>(dims[i], dims[i + 1], rng);
    dense_.push_back(dense.get());
    net_.Append(std::move(dense));
    if (i + 2 < dims.size()) {
      net_.Append(std::make_unique<Relu>());
    }
  }
}

Tensor Mlp::Forward(const Tensor& input) { return net_.Forward(input); }

Tensor Mlp::Apply(const Tensor& input) const { return net_.Apply(input); }

Tensor Mlp::ApplyFused(const Tensor& input) const {
  // Fused inference path for the batched engine: every hidden Dense is
  // followed by a ReLU, so the bias-add and the clamp share one sweep
  // over the activations (Dense::ApplyActivated). Bit-identical to
  // Apply — per element the op sequence is unchanged — with one less
  // pass per hidden layer. Apply stays on the plain layer chain as the
  // obviously-correct oracle simd_test checks this path against.
  Tensor x = dense_.front()->ApplyActivated(input, dense_.size() > 1);
  for (size_t i = 1; i < dense_.size(); ++i) {
    x = dense_[i]->ApplyActivated(x, i + 1 < dense_.size());
  }
  return x;
}

Tensor Mlp::Backward(const Tensor& grad_output) {
  return net_.Backward(grad_output);
}

void Mlp::BackwardParams(const Tensor& grad_output) {
  net_.BackwardParams(grad_output);
}

std::vector<Parameter*> Mlp::Parameters() { return net_.Parameters(); }

}  // namespace nn
}  // namespace confcard
