// Convenience multi-layer perceptron: Dense+ReLU stacks with a linear
// output layer, the architecture shared by the supervised estimators and
// the per-set modules of MSCN.
#ifndef CONFCARD_NN_MLP_H_
#define CONFCARD_NN_MLP_H_

#include <vector>

#include "nn/layers.h"

namespace confcard {
namespace nn {

/// MLP with ReLU activations between layers and a linear final layer.
class Mlp : public Layer {
 public:
  /// `dims` = {in, hidden..., out}; must have at least 2 entries.
  Mlp(const std::vector<size_t>& dims, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  Tensor Apply(const Tensor& input) const override;
  /// Batched-inference forward with each hidden layer's bias-add and
  /// ReLU fused into one sweep. Bit-identical to Apply (the per-element
  /// op sequence is unchanged); used by the batched engine, while Apply
  /// remains the plain reference chain.
  Tensor ApplyFused(const Tensor& input) const;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParams(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }

 private:
  Sequential net_;
  // The Dense layers of net_ in order, for the fused inference path in
  // Apply (each hidden Dense is followed by a ReLU; the bias-add and
  // clamp share one sweep). Non-owning; net_ owns the layers.
  std::vector<const Dense*> dense_;
  size_t in_dim_ = 0;
  size_t out_dim_ = 0;
};

}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_MLP_H_
