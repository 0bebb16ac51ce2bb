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

}  // namespace

Dense::Dense(size_t in_dim, size_t out_dim, Rng& rng) {
  weight_.value = Tensor::HeInit(in_dim, out_dim, rng);
  weight_.grad = Tensor::Zeros(in_dim, out_dim);
  bias_.value = Tensor::Zeros(1, out_dim);
  bias_.grad = Tensor::Zeros(1, out_dim);
}

Tensor Dense::Forward(const Tensor& input) {
  return ForwardActivated(input, /*relu=*/false);
}

// The scalar reference: MatMul, then + bias in a plain loop.
Tensor Dense::Apply(const Tensor& input) const {
  CONFCARD_DCHECK(input.cols() == weight_.value.rows());
  Tensor out = MatMul(input, weight_.value);
  const float* b = bias_.value.RowPtr(0);
  for (size_t r = 0; r < out.rows(); ++r) {
    float* row = out.RowPtr(r);
    for (size_t c = 0; c < out.cols(); ++c) row[c] += b[c];
  }
  return out;
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

Tensor Dense::ApplyCols(const Tensor& input, size_t col_begin,
                        size_t col_end) const {
  CONFCARD_DCHECK(input.cols() == weight_.value.rows());
  CONFCARD_DCHECK(col_begin <= col_end && col_end <= weight_.value.cols());
  Tensor out = MatMulCols(input, weight_.value, col_begin, col_end);
  BiasActivate(&out, bias_.value.RowPtr(0) + col_begin, /*relu=*/false);
  return out;
}

Tensor Dense::ForwardActivated(Tensor input, bool relu) {
  input_ = std::move(input);
  return ApplyActivated(input_, relu);
}

Tensor Dense::Backward(const Tensor& grad_output) {
  BackwardParams(grad_output);
  return MatMulTransB(grad_output, weight_.value);
}

void Dense::BackwardParams(const Tensor& grad_output) {
  CONFCARD_DCHECK(grad_output.rows() == input_.rows());
  AddMatMulTransA(input_, grad_output, &weight_.grad);
  AddBiasGrad(grad_output, &bias_);
}

std::vector<Parameter*> Dense::Parameters() { return {&weight_, &bias_}; }

}  // namespace nn
}  // namespace confcard
