#include "nn/optimizer.h"

#include <cmath>

#include "nn/simd.h"
#include "obs/metrics.h"

namespace confcard {
namespace nn {

void Optimizer::ZeroGrad() {
  for (Parameter* p : params_) p->grad.Fill(0.0f);
}

Sgd::Sgd(std::vector<Parameter*> params, double lr, double momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) {
    velocity_.push_back(Tensor::Zeros(p->value.rows(), p->value.cols()));
  }
}

Sgd::~Sgd() {
  if (steps_ > 0) {
    obs::Metrics().GetCounter("nn.sgd.steps").Increment(
        static_cast<uint64_t>(steps_));
  }
}

void Sgd::Step() {
  ++steps_;
  const float lr = static_cast<float>(lr_);
  const float mom = static_cast<float>(momentum_);
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    auto& vel = velocity_[i].data();
    auto& g = p->grad.data();
    auto& w = p->value.data();
    for (size_t j = 0; j < w.size(); ++j) {
      vel[j] = mom * vel[j] - lr * g[j];
      w[j] += vel[j];
      g[j] = 0.0f;
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.push_back(Tensor::Zeros(p->value.rows(), p->value.cols()));
    v_.push_back(Tensor::Zeros(p->value.rows(), p->value.cols()));
  }
}

Adam::~Adam() {
  if (t_ > 0) {
    obs::Metrics().GetCounter("nn.adam.steps").Increment(
        static_cast<uint64_t>(t_));
  }
}

namespace {

// The per-step constants of Adam's update, in float.
struct AdamCoeffs {
  float b1, one_minus_b1, b2, one_minus_b2, bc1, bc2, lr, eps;
};

// One lane vector of the Adam update, in the scalar expression order:
//   m = b1*m + (1-b1)*g
//   v = b2*v + ((1-b2)*g)*g
//   w = w - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
// and the gradient zeroed. Each lane op rounds exactly as its scalar
// operator does (simd.h), so every lane matches the ScalarLanes
// instantiation bit for bit. `k` is taken by value so the stores
// through the float pointers cannot alias it.
template <typename L>
inline void AdamLanes(AdamCoeffs k, float* w, float* g, float* m, float* v) {
  using Vec = typename L::Vec;
  const Vec gv = L::Load(g);
  const Vec mv = L::Add(L::Mul(L::Broadcast(k.b1), L::Load(m)),
                        L::Mul(L::Broadcast(k.one_minus_b1), gv));
  const Vec vv =
      L::Add(L::Mul(L::Broadcast(k.b2), L::Load(v)),
             L::Mul(L::Mul(L::Broadcast(k.one_minus_b2), gv), gv));
  L::Store(m, mv);
  L::Store(v, vv);
  const Vec mhat = L::Div(mv, L::Broadcast(k.bc1));
  const Vec vhat = L::Div(vv, L::Broadcast(k.bc2));
  const Vec step =
      L::Div(L::Mul(L::Broadcast(k.lr), mhat),
             L::Add(L::Sqrt(vhat), L::Broadcast(k.eps)));
  L::Store(w, L::Sub(L::Load(w), step));
  L::Store(g, L::Zero());
}

// The update over n elements: whole vectors, then the tail one scalar
// lane at a time. With L = ScalarLanes this is the scalar reference.
template <typename L>
void AdamSweep(AdamCoeffs k, size_t n, float* w, float* g, float* m,
               float* v) {
  constexpr size_t W = L::kWidth;
  size_t j = 0;
  for (; j + W <= n; j += W) AdamLanes<L>(k, w + j, g + j, m + j, v + j);
  for (; j < n; ++j) {
    AdamLanes<simd::ScalarLanes>(k, w + j, g + j, m + j, v + j);
  }
}

}  // namespace

void Adam::Step() {
  ++t_;
  const float b1 = static_cast<float>(beta1_);
  const float b2 = static_cast<float>(beta2_);
  const AdamCoeffs k{b1,
                     1.0f - b1,
                     b2,
                     1.0f - b2,
                     1.0f - std::pow(b1, static_cast<float>(t_)),
                     1.0f - std::pow(b2, static_cast<float>(t_)),
                     static_cast<float>(lr_),
                     static_cast<float>(eps_)};
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* w = p->value.data().data();
    float* g = p->grad.data().data();
    float* m = m_[i].data().data();
    float* v = v_[i].data().data();
    const size_t n = p->value.size();
    if constexpr (simd::kHaveNativeLanes) {
      if (SimdEnabled()) {
        AdamSweep<simd::NativeLanes>(k, n, w, g, m, v);
        continue;
      }
    }
    AdamSweep<simd::ScalarLanes>(k, n, w, g, m, v);
  }
}

}  // namespace nn
}  // namespace confcard
