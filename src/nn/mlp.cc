#include "nn/mlp.h"

#include <utility>

#include "common/check.h"

namespace confcard {
namespace nn {
namespace {

// Relu::Backward in place on `grad`, masked by the ReLU's output rather
// than its input: relu(v) <= 0 exactly where v <= 0, so the same
// entries become 0.0f.
void ZeroWhereInactive(const Tensor& activation, Tensor* grad) {
  CONFCARD_DCHECK(grad->size() == activation.size());
  const float* a = activation.data().data();
  float* g = grad->data().data();
  for (size_t i = 0; i < grad->size(); ++i) {
    if (a[i] <= 0.0f) g[i] = 0.0f;
  }
}

// Backprop through every layer above the first, each hidden ReLU's
// backward applied in place; returns first(g) for the gradient g at
// the first layer's output.
template <typename First>
auto BackwardAboveFirst(std::vector<Dense>& dense, const Tensor& grad_output,
                        const First& first) {
  if (dense.size() == 1) return first(grad_output);
  Tensor g = dense.back().Backward(grad_output);
  ZeroWhereInactive(dense.back().input(), &g);
  for (size_t i = dense.size() - 1; i-- > 1;) {
    g = dense[i].Backward(g);
    ZeroWhereInactive(dense[i].input(), &g);
  }
  return first(g);
}

}  // namespace

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng) {
  CONFCARD_CHECK(dims.size() >= 2);
  dense_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    dense_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Tensor Mlp::Forward(const Tensor& input) { return Forward(Tensor(input)); }

Tensor Mlp::Forward(Tensor&& input) {
  Tensor x = std::move(input);
  for (size_t i = 0; i < dense_.size(); ++i) {
    x = dense_[i].ForwardActivated(std::move(x), i + 1 < dense_.size());
  }
  return x;
}

Tensor Mlp::Apply(const Tensor& input) const {
  const Relu relu;
  Tensor x = dense_.front().Apply(input);
  for (size_t i = 1; i < dense_.size(); ++i) {
    x = dense_[i].Apply(relu.Apply(std::move(x)));
  }
  return x;
}

Tensor Mlp::ApplyFused(const Tensor& input) const {
  Tensor x = dense_.front().ApplyActivated(input, dense_.size() > 1);
  for (size_t i = 1; i < dense_.size(); ++i) {
    x = dense_[i].ApplyActivated(x, i + 1 < dense_.size());
  }
  return x;
}

Tensor Mlp::Backward(const Tensor& grad_output) {
  return BackwardAboveFirst(dense_, grad_output, [this](const Tensor& g) {
    return dense_.front().Backward(g);
  });
}

void Mlp::BackwardParams(const Tensor& grad_output) {
  BackwardAboveFirst(dense_, grad_output, [this](const Tensor& g) {
    dense_.front().BackwardParams(g);
  });
}

std::vector<Parameter*> Mlp::Parameters() {
  std::vector<Parameter*> out;
  for (Dense& d : dense_) {
    out.push_back(&d.weight());
    out.push_back(&d.bias());
  }
  return out;
}

}  // namespace nn
}  // namespace confcard
