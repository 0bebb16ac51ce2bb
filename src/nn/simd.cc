#include "nn/simd.h"

#include <atomic>

namespace confcard {
namespace nn {
namespace {

std::atomic<bool> g_simd_enabled{simd::kHaveNativeLanes};

}  // namespace

bool SimdCompiledIn() { return simd::kHaveNativeLanes; }

bool SimdEnabled() { return g_simd_enabled.load(std::memory_order_relaxed); }

void SetSimdEnabled(bool on) {
  g_simd_enabled.store(on && simd::kHaveNativeLanes,
                       std::memory_order_relaxed);
}

const char* SimdIsaName() { return simd::kSimdIsaName; }

size_t SimdLaneWidth() { return simd::NativeLanes::kWidth; }

}  // namespace nn
}  // namespace confcard
