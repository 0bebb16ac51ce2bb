// Portable SIMD lane abstraction for the float32 kernels in
// tensor.cc, layers.cc and optimizer.cc, plus the runtime controls the
// benches and tests use to compare scalar and vector paths in one
// binary.
//
// The bit-identity contract (docs/PERFORMANCE.md) shapes everything
// here: kernels may only vectorize across INDEPENDENT OUTPUT LANES
// (j-columns of a GEMM output, elementwise sweeps), never across the
// shared reduction dimension — each output element's p-ascending
// accumulation order must match the scalar kernel exactly. The lane ops
// are plain IEEE add/sub/mul/div/sqrt, each rounded once per lane just
// as the scalar operator is (no FMA: a fused multiply-add rounds once
// instead of twice and would change low bits), and `Relu` reproduces
// `v < 0.0f ? 0.0f : v` including -0.0 and NaN behavior.
//
// ISA selection is at compile time from the target the translation unit
// is built for:
//   * AVX-512F (16 lanes) when __AVX512F__ — src/CMakeLists.txt probes
//     the build host and adds -mavx512f as a PUBLIC compile option of
//     the confcard library, so every target that links it (tests,
//     benches, tools, perfbench) sees the same ISA macros here.
//     CONFCARD_SIMD=avx2 at configure time skips the probe.
//   * AVX2 (8 lanes) when __AVX2__ — the top-level CMakeLists probes the
//     build host and adds -mavx2 when it supports it. Neither probe adds
//     -mfma, so the compiler cannot contract mul+add into FMA.
//   * SSE2 (4 lanes) on any x86-64 build.
//   * NEON (4 lanes) on AArch64. 32-bit ARM NEON is deliberately NOT
//     used: ARMv7 NEON flushes denormals to zero, which breaks bit
//     identity with the scalar VFP path.
//   * Scalar (1 lane) otherwise, or when CONFCARD_SIMD=off at configure
//     time (which defines CONFCARD_SIMD_OFF and compiles the vector
//     paths out entirely).
//
// At runtime, SetSimdEnabled(false) switches every kernel back to its
// scalar reference implementation — both paths live in the binary,
// which is what lets tests assert scalar-vs-SIMD bit identity and lets
// bench_parallel report honest scalar-vs-SIMD kernel numbers.
#ifndef CONFCARD_NN_SIMD_H_
#define CONFCARD_NN_SIMD_H_

#include <cmath>
#include <cstddef>
#include <cstdint>

#if !defined(CONFCARD_SIMD_OFF)
#if defined(__AVX512F__)
#define CONFCARD_SIMD_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__)
#define CONFCARD_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define CONFCARD_SIMD_SSE2 1
#include <emmintrin.h>
#include <xmmintrin.h>
#elif defined(__aarch64__) && (defined(__ARM_NEON) || defined(__ARM_NEON__))
#define CONFCARD_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !CONFCARD_SIMD_OFF

namespace confcard {
namespace nn {

/// True when this build carries a vector ISA (AVX-512/AVX2/SSE2/NEON)
/// for the kernels; false for scalar-only builds (CONFCARD_SIMD=off or
/// an unsupported target).
bool SimdCompiledIn();

/// Whether the kernels currently take their vector paths. Defaults to
/// SimdCompiledIn().
bool SimdEnabled();

/// Runtime toggle (relaxed-atomic; safe to flip between kernel calls,
/// not concurrently with one). Forcing `true` is a no-op in scalar-only
/// builds. Benches and the bit-identity tests sweep this.
void SetSimdEnabled(bool on);

/// The compiled kernel ISA: "avx512", "avx2", "sse2", "neon", or
/// "scalar".
/// Reports what the binary carries, independent of SimdEnabled().
const char* SimdIsaName();

/// Lanes per vector for the compiled ISA (1 when scalar).
size_t SimdLaneWidth();

namespace simd {

/// Reference lane set: width 1, plain float ops. The vector kernels
/// instantiated with this type are the scalar semantics the wide types
/// must reproduce bit for bit.
struct ScalarLanes {
  using Vec = float;
  static constexpr size_t kWidth = 1;
  static Vec Load(const float* p) { return *p; }
  static void Store(float* p, Vec v) { *p = v; }
  static Vec Broadcast(float x) { return x; }
  static Vec Zero() { return 0.0f; }
  static Vec Add(Vec a, Vec b) { return a + b; }
  static Vec Sub(Vec a, Vec b) { return a - b; }
  static Vec Mul(Vec a, Vec b) { return a * b; }
  static Vec Div(Vec a, Vec b) { return a / b; }
  static Vec Sqrt(Vec v) { return std::sqrt(v); }
  static Vec Relu(Vec v) { return v < 0.0f ? 0.0f : v; }
  static uint32_t NonzeroMask(Vec v) { return v != 0.0f; }
};

#if defined(CONFCARD_SIMD_AVX512)

struct Avx512Lanes {
  using Vec = __m512;
  static constexpr size_t kWidth = 16;
  static Vec Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
  static Vec Broadcast(float x) { return _mm512_set1_ps(x); }
  static Vec Zero() { return _mm512_setzero_ps(); }
  static Vec Add(Vec a, Vec b) { return _mm512_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm512_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm512_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm512_div_ps(a, b); }
  // Sqrt and Relu take the zero-masking form with every lane selected,
  // the same instruction as the plain one: GCC 12 builds the plain
  // form's pass-through from a self-initialized `_mm512_undefined_ps`,
  // which -Wmaybe-uninitialized reports at every use.
  static Vec Sqrt(Vec v) { return _mm512_maskz_sqrt_ps(kAll, v); }
  // Same -0.0/NaN reasoning as the AVX2 variant: vmaxps returns its
  // second operand on equal or unordered inputs at every width.
  static Vec Relu(Vec v) { return _mm512_maskz_max_ps(kAll, Zero(), v); }
  // Not-equal, unordered: true for NaN lanes, as `!=` is.
  static uint32_t NonzeroMask(Vec v) {
    return _mm512_cmp_ps_mask(v, Zero(), _CMP_NEQ_UQ);
  }
  static constexpr __mmask16 kAll = 0xFFFF;
};

using NativeLanes = Avx512Lanes;
inline constexpr const char* kSimdIsaName = "avx512";

#elif defined(CONFCARD_SIMD_AVX2)

struct Avx2Lanes {
  using Vec = __m256;
  static constexpr size_t kWidth = 8;
  static Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec Broadcast(float x) { return _mm256_set1_ps(x); }
  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Add(Vec a, Vec b) { return _mm256_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm256_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm256_div_ps(a, b); }
  static Vec Sqrt(Vec v) { return _mm256_sqrt_ps(v); }
  // maxps(0, v) returns the SECOND operand when the compare is equal or
  // unordered, so -0.0f passes through and NaN stays NaN — exactly
  // `v < 0.0f ? 0.0f : v`.
  static Vec Relu(Vec v) { return _mm256_max_ps(Zero(), v); }
  static uint32_t NonzeroMask(Vec v) {
    return static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_cmp_ps(v, Zero(), _CMP_NEQ_UQ)));
  }
};

using NativeLanes = Avx2Lanes;
inline constexpr const char* kSimdIsaName = "avx2";

#elif defined(CONFCARD_SIMD_SSE2)

struct Sse2Lanes {
  using Vec = __m128;
  static constexpr size_t kWidth = 4;
  static Vec Load(const float* p) { return _mm_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm_storeu_ps(p, v); }
  static Vec Broadcast(float x) { return _mm_set1_ps(x); }
  static Vec Zero() { return _mm_setzero_ps(); }
  static Vec Add(Vec a, Vec b) { return _mm_add_ps(a, b); }
  static Vec Sub(Vec a, Vec b) { return _mm_sub_ps(a, b); }
  static Vec Mul(Vec a, Vec b) { return _mm_mul_ps(a, b); }
  static Vec Div(Vec a, Vec b) { return _mm_div_ps(a, b); }
  static Vec Sqrt(Vec v) { return _mm_sqrt_ps(v); }
  // Same -0.0/NaN reasoning as the AVX2 variant.
  static Vec Relu(Vec v) { return _mm_max_ps(Zero(), v); }
  // cmpneqps is the unordered not-equal: true for NaN lanes.
  static uint32_t NonzeroMask(Vec v) {
    return static_cast<uint32_t>(_mm_movemask_ps(_mm_cmpneq_ps(v, Zero())));
  }
};

using NativeLanes = Sse2Lanes;
inline constexpr const char* kSimdIsaName = "sse2";

#elif defined(CONFCARD_SIMD_NEON)

struct NeonLanes {
  using Vec = float32x4_t;
  static constexpr size_t kWidth = 4;
  static Vec Load(const float* p) { return vld1q_f32(p); }
  static void Store(float* p, Vec v) { vst1q_f32(p, v); }
  static Vec Broadcast(float x) { return vdupq_n_f32(x); }
  static Vec Zero() { return vdupq_n_f32(0.0f); }
  static Vec Add(Vec a, Vec b) { return vaddq_f32(a, b); }
  static Vec Sub(Vec a, Vec b) { return vsubq_f32(a, b); }
  static Vec Mul(Vec a, Vec b) { return vmulq_f32(a, b); }
  static Vec Div(Vec a, Vec b) { return vdivq_f32(a, b); }
  static Vec Sqrt(Vec v) { return vsqrtq_f32(v); }
  // vmaxq would return +0.0 for -0.0 input; the select reproduces the
  // scalar `v < 0.0f ? 0.0f : v` exactly (NaN < 0 is false -> NaN kept).
  static Vec Relu(Vec v) { return vbslq_f32(vcltq_f32(v, Zero()), Zero(), v); }
  // Lane l contributes 1 << l unless it compares equal to zero (a NaN
  // never does).
  static uint32_t NonzeroMask(Vec v) {
    const uint32x4_t bits = {1, 2, 4, 8};
    return vaddvq_u32(vbicq_u32(bits, vceqq_f32(v, Zero())));
  }
};

using NativeLanes = NeonLanes;
inline constexpr const char* kSimdIsaName = "neon";

#else

using NativeLanes = ScalarLanes;
inline constexpr const char* kSimdIsaName = "scalar";

#endif

/// Compile-time gate the kernels use so scalar-only builds emit no dead
/// vector instantiations.
inline constexpr bool kHaveNativeLanes = (NativeLanes::kWidth > 1);

}  // namespace simd
}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_SIMD_H_
