// Multi-layer perceptron: Dense+ReLU stacks with a linear output layer,
// the network of every learned estimator — MSCN's per-set modules,
// LW-NN, and Naru's MADE (whose layers carry masked weights).
#ifndef CONFCARD_NN_MLP_H_
#define CONFCARD_NN_MLP_H_

#include <vector>

#include "nn/layers.h"

namespace confcard {
namespace nn {

/// MLP with ReLU activations between layers and a linear final layer.
///
/// Training runs one chain: Forward takes each layer's MatMul and one
/// bias+ReLU sweep (ApplyFused's step), and each layer keeps its input
/// once — the activation the layer below returned, moved, not copied.
/// Backward masks the input gradient of each hidden ReLU in place
/// wherever the kept activation is <= 0, which is exactly where the
/// pre-activation is (the clamp passes -0.0 and NaN through), and adds
/// each weight gradient in the GEMM's store (AddMatMulTransA).
class Mlp : public Layer {
 public:
  /// `dims` = {in, hidden..., out}; must have at least 2 entries.
  Mlp(const std::vector<size_t>& dims, Rng& rng);
  /// The given layers in order, for a caller that builds them itself
  /// (Naru draws its MADE degrees between the layers' inits). Each
  /// layer's out_dim must be the next one's in_dim.
  explicit Mlp(std::vector<Dense> layers);

  Tensor Forward(const Tensor& input) override;
  /// Forward for a caller that is done with `input`: the first layer
  /// keeps it without a copy.
  Tensor Forward(Tensor&& input);
  /// The plain layer chain, Dense::Apply then a scalar ReLU clamp: the
  /// reference simd_test checks ApplyFused and ApplyCols against.
  Tensor Apply(const Tensor& input) const override;
  /// Batched-inference forward with each hidden layer's bias-add and
  /// ReLU fused into one sweep. Bit-identical to Apply (the per-element
  /// op sequence is unchanged); used by the batched engine.
  Tensor ApplyFused(const Tensor& input) const;
  /// ApplyFused restricted to output columns [col_begin, col_end): the
  /// hidden layers in full, then the last layer's Dense::ApplyCols.
  /// Bit-identical to the corresponding slice of Apply; Naru's sampler
  /// takes one column block's logits per step this way.
  Tensor ApplyCols(const Tensor& input, size_t col_begin,
                   size_t col_end) const;
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
