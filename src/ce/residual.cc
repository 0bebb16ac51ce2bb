#include "ce/residual.h"

#include <algorithm>
#include <cmath>

namespace confcard {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

ResidualCorrector::ResidualCorrector() : slots_(kCapacity) {}

uint64_t ResidualCorrector::SubspaceHash(const Query& query) {
  // (column, op) pairs, sorted so predicate order does not matter.
  // Queries are small (a handful of predicates), so an insertion sort
  // over a fixed local buffer avoids allocation.
  constexpr size_t kMaxPreds = 32;
  uint64_t keys[kMaxPreds];
  size_t n = std::min(query.predicates.size(), kMaxPreds);
  for (size_t i = 0; i < n; ++i) {
    const Predicate& p = query.predicates[i];
    keys[i] = (static_cast<uint64_t>(static_cast<uint32_t>(p.column)) << 1) |
              (p.op == PredOp::kBetween ? 1u : 0u);
  }
  std::sort(keys, keys + n);
  uint64_t h = kFnvOffset;
  h = FnvMix(h, static_cast<uint64_t>(n));
  for (size_t i = 0; i < n; ++i) h = FnvMix(h, keys[i]);
  return h;
}

const ResidualCorrector::Slot* ResidualCorrector::Find(uint64_t fss) const {
  size_t base = static_cast<size_t>(fss) & kMask;
  for (size_t i = 0; i < kProbeWindow; ++i) {
    const Slot& slot = slots_[(base + i) & kMask];
    if (slot.count == 0) return nullptr;
    if (slot.fss == fss) return &slot;
  }
  return nullptr;
}

ResidualCorrector::Slot* ResidualCorrector::FindOrEvict(uint64_t fss) {
  size_t base = static_cast<size_t>(fss) & kMask;
  Slot* victim = nullptr;
  for (size_t i = 0; i < kProbeWindow; ++i) {
    Slot& slot = slots_[(base + i) & kMask];
    if (slot.fss == fss && slot.count > 0) return &slot;
    if (slot.count == 0) {
      if (victim == nullptr || victim->count > 0) victim = &slot;
      continue;
    }
    if (victim == nullptr || (victim->count > 0 && slot.count < victim->count))
      victim = &slot;
  }
  if (victim->count > 0) {
    ++evictions_;
    --entries_;
  }
  victim->fss = fss;
  victim->count = 0;
  victim->bias = 0.0;
  ++entries_;
  return victim;
}

double ResidualCorrector::Correct(uint64_t fss, double estimate) const {
  const Slot* slot = Find(fss);
  if (slot == nullptr || slot->count < kMinObservations) return estimate;
  double factor = std::exp(slot->bias);
  factor = std::clamp(factor, 1.0 / kMaxCorrection, kMaxCorrection);
  // Correct in shifted space so zero-cardinality truths stay reachable.
  double corrected = (estimate + 1.0) * factor - 1.0;
  return std::max(corrected, 0.0);
}

void ResidualCorrector::Observe(uint64_t fss, double estimate, double truth) {
  if (!std::isfinite(estimate) || !std::isfinite(truth)) return;
  Slot* slot = FindOrEvict(fss);
  double residual =
      std::log((std::max(truth, 0.0) + 1.0) / (std::max(estimate, 0.0) + 1.0));
  if (slot->count == 0) {
    slot->bias = residual;
  } else {
    slot->bias = (1.0 - kSmoothing) * slot->bias + kSmoothing * residual;
  }
  ++slot->count;
  ++observed_;
}

void ResidualCorrector::Reset() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  entries_ = 0;
}

}  // namespace confcard
