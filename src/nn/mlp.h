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
///
/// Training runs its own chain rather than a Sequential of Dense and
/// Relu layers: Forward takes each layer's MatMul and one bias+ReLU
/// sweep (ApplyFused's step), and each layer keeps its input once — the
/// activation the layer below returned, moved, not copied. Backward
/// masks the input gradient of each hidden ReLU in place wherever the
/// kept activation is <= 0, which is exactly where the pre-activation
/// is (the clamp passes -0.0 and NaN through), and adds each weight
/// gradient in the GEMM's store (AddMatMulTransA). Every value is bit
/// for bit the Dense/Relu chain's.
class Mlp : public Layer {
 public:
  /// `dims` = {in, hidden..., out}; must have at least 2 entries.
  Mlp(const std::vector<size_t>& dims, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  /// Forward for a caller that is done with `input`: the first layer
  /// keeps it without a copy.
  Tensor Forward(Tensor&& input);
  /// The plain layer chain, Dense::Apply then Relu::Apply: the
  /// reference simd_test checks ApplyFused against.
  Tensor Apply(const Tensor& input) const override;
  /// Batched-inference forward with each hidden layer's bias-add and
  /// ReLU fused into one sweep. Bit-identical to Apply (the per-element
  /// op sequence is unchanged); used by the batched engine.
  Tensor ApplyFused(const Tensor& input) const;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParams(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

  size_t in_dim() const { return dense_.front().in_dim(); }
  size_t out_dim() const { return dense_.back().out_dim(); }

 private:
  // The layers in order; a ReLU follows every one but the last.
  std::vector<Dense> dense_;
};

}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_MLP_H_
