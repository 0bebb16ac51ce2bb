// Row-block dispatch shared by the GEMM kernels (tensor.cc) and the
// column-restricted forwards (layers.cc): one flop threshold decides
// when a product is worth the worker pool.
#ifndef CONFCARD_NN_ROW_BLOCKS_H_
#define CONFCARD_NN_ROW_BLOCKS_H_

#include <algorithm>
#include <cstddef>

#include "common/parallel.h"

namespace confcard {
namespace nn {

/// Products below this many flops run inline on the calling thread.
/// Below it, a 4-thread product costs 1.2-2.4x the CPU of the inline
/// one on a 4-vCPU AVX-512 host; from it on, at most 1.33x, with a
/// 2-3x wall-time gain (docs/PERFORMANCE.md, "When a GEMM goes to the
/// pool"). Every training GEMM of MSCN, Naru and LW-NN at the
/// benchmark's shapes is below it; the largest, Naru's 64 -> 301 output
/// layer at batch 128, is 4.9 Mflop.
inline constexpr size_t kMinFlopsToParallelize = size_t{1} << 23;

/// Runs kernel(r0, r1) over [0, rows): one inline call for products
/// below kMinFlopsToParallelize flops or 8 rows, else ParallelFor over
/// chunks aligned to the 4-row micro block, so the grouping of rows
/// into blocks — and therefore the zero-block skip decisions — is
/// identical at every thread count.
template <typename Kernel>
void ForEachRowBlock(size_t rows, size_t flops, const Kernel& kernel) {
  if (flops < kMinFlopsToParallelize || rows < 8) {
    kernel(0, rows);
    return;
  }
  const size_t threads = static_cast<size_t>(std::max(1, CurrentThreads()));
  const size_t chunk = std::max<size_t>(1, rows / (threads * 4));
  ParallelFor(rows, (chunk + 3) & ~size_t{3}, kernel);
}

}  // namespace nn
}  // namespace confcard

#endif  // CONFCARD_NN_ROW_BLOCKS_H_
