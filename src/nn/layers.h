// Neural-network layers with explicit forward/backward passes. Backward
// accumulates parameter gradients (cleared by the optimizer step) and
// returns the gradient with respect to the layer input.
#ifndef CONFCARD_NN_LAYERS_H_
#define CONFCARD_NN_LAYERS_H_

#include <memory>
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

  /// Apply for a caller that is done with `input`: layers that can work
  /// in place (activations) reuse the buffer instead of copying it. The
  /// values are identical to Apply(const Tensor&); only allocations and
  /// copies differ. Batched inference pipes large intermediates through
  /// this overload so each layer step stops costing a full-tensor copy.
  virtual Tensor Apply(Tensor&& input) const { return Apply(input); }

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after Forward on the same batch.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Backward for a caller that drops dLoss/dInput, as the first layer
  /// of a network does: accumulates the same parameter gradients, bit
  /// for bit, and skips the input-gradient product where it can.
  virtual void BackwardParams(const Tensor& grad_output) {
    Backward(grad_output);
  }

  /// Learnable parameters (empty for activations).
  virtual std::vector<Parameter*> Parameters() { return {}; }
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
  /// the clamp — so the result is bit-identical to Apply(input) followed
  /// by Relu::Apply; only the number of passes over the tensor differs.
  Tensor ApplyActivated(const Tensor& input, bool relu) const;

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

/// Dense layer whose weight is elementwise-multiplied by a fixed binary
/// mask — the building block of MADE's autoregressive property.
class MaskedDense : public Layer {
 public:
  /// `mask` has shape (in_dim, out_dim); entries in {0, 1}.
  MaskedDense(size_t in_dim, size_t out_dim, Tensor mask, Rng& rng);

  Tensor Forward(const Tensor& input) override;
  Tensor Apply(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;
  void BackwardParams(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

  /// Dense inference forward restricted to output columns
  /// [col_begin, col_end) — what Naru's sampler needs from the MADE
  /// output layer, which is softmaxed one column block at a time:
  /// MatMulCols, then + bias. Bit-identical to the corresponding slice
  /// of Apply.
  Tensor ApplyCols(const Tensor& input, size_t col_begin,
                   size_t col_end) const;

  size_t in_dim() const { return weight_.value.rows(); }
  size_t out_dim() const { return weight_.value.cols(); }

  const Tensor& mask() const { return mask_; }

 private:
  void ApplyMaskToWeight();

  Parameter weight_;
  Parameter bias_;
  Tensor mask_;
  Tensor input_;
};

/// Rectified linear activation.
class Relu : public Layer {
 public:
  Tensor Forward(const Tensor& input) override;
  Tensor Apply(const Tensor& input) const override;
  /// In-place clamp of a buffer the caller no longer needs: same values,
  /// no copy.
  Tensor Apply(Tensor&& input) const override;
  Tensor Backward(const Tensor& grad_output) override;

 private:
  Tensor input_;
};

/// Ordered container of layers.
class Sequential : public Layer {
 public:
  Sequential() = default;

  void Append(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  Tensor Forward(const Tensor& input) override;
  Tensor Apply(const Tensor& input) const override;
  Tensor Backward(const Tensor& grad_output) override;
  /// Full Backward through every layer but the first, which gets
  /// BackwardParams.
  void BackwardParams(const Tensor& grad_output) override;
  std::vector<Parameter*> Parameters() override;

  size_t num_layers() const { return layers_.size(); }
  const Layer& layer(size_t i) const { return *layers_[i]; }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_LAYERS_H_
