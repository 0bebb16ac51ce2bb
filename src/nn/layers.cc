#include "nn/layers.h"

#include <utility>

#include "common/check.h"
#include "nn/simd.h"

namespace confcard {
namespace nn {
namespace {

// bias.grad += the column sums of grad_output, row by row.
void AddBiasGrad(const Tensor& grad_output, Parameter* bias) {
  float* b = bias->grad.RowPtr(0);
  for (size_t r = 0; r < grad_output.rows(); ++r) {
    const float* row = grad_output.RowPtr(r);
    for (size_t c = 0; c < grad_output.cols(); ++c) b[c] += row[c];
  }
}

void AddBiasRows(Tensor* out, const Parameter& bias) {
  const float* b = bias.value.RowPtr(0);
  for (size_t r = 0; r < out->rows(); ++r) {
    float* row = out->RowPtr(r);
    for (size_t c = 0; c < out->cols(); ++c) row[c] += b[c];
  }
}

// out = in * W + b, shared by the Forward and Apply paths of the dense
// layers (the weight is identical; only activation caching differs).
Tensor LinearForward(const Tensor& input, const Parameter& weight,
                     const Parameter& bias) {
  Tensor out = MatMul(input, weight.value);
  AddBiasRows(&out, bias);
  return out;
}

}  // namespace

Dense::Dense(size_t in_dim, size_t out_dim, Rng& rng) {
  weight_.value = Tensor::HeInit(in_dim, out_dim, rng);
  weight_.grad = Tensor::Zeros(in_dim, out_dim);
  bias_.value = Tensor::Zeros(1, out_dim);
  bias_.grad = Tensor::Zeros(1, out_dim);
}

Tensor Dense::Forward(const Tensor& input) {
  CONFCARD_DCHECK(input.cols() == weight_.value.rows());
  input_ = input;
  return LinearForward(input, weight_, bias_);
}

Tensor Dense::Apply(const Tensor& input) const {
  CONFCARD_DCHECK(input.cols() == weight_.value.rows());
  return LinearForward(input, weight_, bias_);
}

namespace {

// The fused bias(+ReLU) sweep of ApplyActivated. L::Relu reproduces the
// scalar `v < 0.0f ? 0.0f : v` clamp exactly (including -0.0 and NaN;
// see simd.h), so the vector sweep is bit-identical to the scalar one.
template <typename L>
void BiasActivateRows(Tensor* out, const float* b, bool relu) {
  constexpr size_t W = L::kWidth;
  const size_t m = out->cols();
  for (size_t r = 0; r < out->rows(); ++r) {
    float* row = out->RowPtr(r);
    size_t c = 0;
    if (relu) {
      for (; c + W <= m; c += W) {
        L::Store(row + c, L::Relu(L::Add(L::Load(row + c), L::Load(b + c))));
      }
      for (; c < m; ++c) {
        const float v = row[c] + b[c];
        row[c] = v < 0.0f ? 0.0f : v;
      }
    } else {
      for (; c + W <= m; c += W) {
        L::Store(row + c, L::Add(L::Load(row + c), L::Load(b + c)));
      }
      for (; c < m; ++c) row[c] += b[c];
    }
  }
}

void BiasActivate(Tensor* out, const float* b, bool relu) {
  if constexpr (simd::kHaveNativeLanes) {
    if (SimdEnabled()) return BiasActivateRows<simd::NativeLanes>(out, b, relu);
  }
  BiasActivateRows<simd::ScalarLanes>(out, b, relu);
}

}  // namespace

Tensor Dense::ApplyActivated(const Tensor& input, bool relu) const {
  CONFCARD_DCHECK(input.cols() == weight_.value.rows());
  Tensor out = MatMul(input, weight_.value);
  BiasActivate(&out, bias_.value.RowPtr(0), relu);
  return out;
}

Tensor Dense::Backward(const Tensor& grad_output) {
  BackwardParams(grad_output);
  return MatMulTransB(grad_output, weight_.value);
}

void Dense::BackwardParams(const Tensor& grad_output) {
  CONFCARD_DCHECK(grad_output.rows() == input_.rows());
  weight_.grad.Add(MatMulTransA(input_, grad_output));
  AddBiasGrad(grad_output, &bias_);
}

std::vector<Parameter*> Dense::Parameters() { return {&weight_, &bias_}; }

MaskedDense::MaskedDense(size_t in_dim, size_t out_dim, Tensor mask, Rng& rng)
    : mask_(std::move(mask)) {
  CONFCARD_CHECK(mask_.rows() == in_dim && mask_.cols() == out_dim);
  weight_.value = Tensor::HeInit(in_dim, out_dim, rng);
  weight_.grad = Tensor::Zeros(in_dim, out_dim);
  bias_.value = Tensor::Zeros(1, out_dim);
  bias_.grad = Tensor::Zeros(1, out_dim);
  ApplyMaskToWeight();
}

void MaskedDense::ApplyMaskToWeight() {
  for (size_t i = 0; i < weight_.value.size(); ++i) {
    weight_.value.data()[i] *= mask_.data()[i];
  }
}

Tensor MaskedDense::Forward(const Tensor& input) {
  // The weight is kept masked at all times (see Backward), so a plain
  // dense forward suffices.
  input_ = input;
  return LinearForward(input, weight_, bias_);
}

Tensor MaskedDense::Apply(const Tensor& input) const {
  return LinearForward(input, weight_, bias_);
}

Tensor MaskedDense::ApplyCols(const Tensor& input, size_t col_begin,
                              size_t col_end) const {
  CONFCARD_DCHECK(input.cols() == weight_.value.rows());
  CONFCARD_DCHECK(col_begin <= col_end && col_end <= weight_.value.cols());
  Tensor out = MatMulCols(input, weight_.value, col_begin, col_end);
  BiasActivate(&out, bias_.value.RowPtr(0) + col_begin, /*relu=*/false);
  return out;
}

Tensor MaskedDense::Backward(const Tensor& grad_output) {
  BackwardParams(grad_output);
  return MatMulTransB(grad_output, weight_.value);
}

void MaskedDense::BackwardParams(const Tensor& grad_output) {
  Tensor wgrad = MatMulTransA(input_, grad_output);
  // Mask the gradient so optimizer steps never resurrect masked weights.
  for (size_t i = 0; i < wgrad.size(); ++i) {
    wgrad.data()[i] *= mask_.data()[i];
  }
  weight_.grad.Add(wgrad);
  AddBiasGrad(grad_output, &bias_);
}

std::vector<Parameter*> MaskedDense::Parameters() {
  return {&weight_, &bias_};
}

Tensor Relu::Forward(const Tensor& input) {
  input_ = input;
  return Apply(input);
}

Tensor Relu::Apply(const Tensor& input) const {
  Tensor out = input;
  for (float& v : out.data()) {
    if (v < 0.0f) v = 0.0f;
  }
  return out;
}

Tensor Relu::Apply(Tensor&& input) const {
  Tensor out = std::move(input);
  for (float& v : out.data()) {
    if (v < 0.0f) v = 0.0f;
  }
  return out;
}

Tensor Relu::Backward(const Tensor& grad_output) {
  CONFCARD_DCHECK(grad_output.size() == input_.size());
  Tensor grad = grad_output;
  for (size_t i = 0; i < grad.size(); ++i) {
    if (input_.data()[i] <= 0.0f) grad.data()[i] = 0.0f;
  }
  return grad;
}

Tensor Sequential::Forward(const Tensor& input) {
  Tensor x = input;
  for (auto& layer : layers_) x = layer->Forward(x);
  return x;
}

Tensor Sequential::Apply(const Tensor& input) const {
  // The first layer reads `input` in place (no copy); later layers take
  // rvalues so in-place-capable layers (Relu) reuse the buffer. Values
  // are unchanged — only copies are elided.
  if (layers_.empty()) return input;
  Tensor x = layers_.front()->Apply(input);
  for (size_t i = 1; i < layers_.size(); ++i) {
    x = layers_[i]->Apply(std::move(x));
  }
  return x;
}

Tensor Sequential::Backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->Backward(g);
  }
  return g;
}

void Sequential::BackwardParams(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor g = grad_output;
  for (size_t i = layers_.size(); i-- > 1;) {
    g = layers_[i]->Backward(g);
  }
  layers_.front()->BackwardParams(g);
}

std::vector<Parameter*> Sequential::Parameters() {
  std::vector<Parameter*> out;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->Parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace nn
}  // namespace confcard
