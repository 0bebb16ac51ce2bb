// Neural-network layers with explicit forward/backward passes. Backward
// accumulates parameter gradients (cleared by the optimizer step) and
// returns the gradient with respect to the layer input.
#ifndef CONFCARD_NN_LAYERS_H_
#define CONFCARD_NN_LAYERS_H_

#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace confcard {
namespace nn {

/// A learnable parameter and its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;
};

/// Base layer interface.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for `input` (batch rows). Implementations
  /// cache whatever they need for Backward.
  virtual Tensor Forward(const Tensor& input) = 0;

  /// Inference-only forward: numerically identical to Forward but caches
  /// nothing, so a trained model can be applied from many threads
  /// concurrently (the harness fans per-query evaluation out across the
  /// pool). Backward after Apply is invalid.
  virtual Tensor Apply(const Tensor& input) const = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after Forward on the same batch.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Backward for a caller that drops dLoss/dInput, as the first layer
  /// of a network does: accumulates the same parameter gradients, bit
  /// for bit, and skips the input-gradient product where it can.
  virtual void BackwardParams(const Tensor& grad_output) {
    Backward(grad_output);
  }

  /// Learnable parameters, in a fixed order (serialization relies on it).
  virtual std::vector<Parameter*> Parameters() = 0;
};

/// Fully connected layer: out = in * W + b.
class Dense : public Layer {
 public:
  Dense(size_t in_dim, size_t out_dim, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  Tensor Apply(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParams(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

  /// Inference forward with the bias-add and (optionally) the following
  /// ReLU fused into one sweep over the output. Per element the sequence
  /// is unchanged — products in ascending input order, then + bias, then
  /// the clamp `v < 0.0f ? 0.0f : v` — so the result is bit-identical to
  /// Apply(input) followed by that clamp; only the number of passes over
  /// the tensor differs.
  Tensor ApplyActivated(const Tensor& input, bool relu) const;

  /// Apply restricted to output columns [col_begin, col_end) — what
  /// Naru's sampler needs from the MADE output layer, which is softmaxed
  /// one column block at a time: MatMulCols, then + bias. Bit-identical
  /// to the corresponding slice of Apply.
  Tensor ApplyCols(const Tensor& input, size_t col_begin,
                   size_t col_end) const;

  /// Training forward with ApplyActivated's fused sweep. Keeps `input`
  /// for Backward by taking it over, so a caller that hands on the
  /// previous layer's output pays no copy (Mlp::Forward).
  Tensor ForwardActivated(Tensor input, bool relu);

  /// The input kept by the last forward, for Backward.
  const Tensor& input() const { return input_; }

  size_t in_dim() const { return weight_.value.rows(); }
  size_t out_dim() const { return weight_.value.cols(); }

  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  Parameter weight_;  // (in, out)
  Parameter bias_;    // (1, out)
  Tensor input_;      // kept for backward
};

}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_LAYERS_H_
