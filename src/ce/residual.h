// Feature-subspace residual correction, after postgrespro/aqo's
// executed-query feedback (cardinality_estimation.c's get_fss_for_object
// + load_fss): executed queries feed their true cardinality back into a
// small knowledge table keyed by a hash of the query's *feature
// subspace* — the set of (column, operator) pairs, not the literals — so
// every future query touching the same subspace gets its point estimate
// multiplied by a learned bias correction. The correction lives in log
// space (cardinalities span orders of magnitude) and is EWMA-smoothed,
// so it tracks drift instead of averaging over regimes.
//
// The table is a fixed-capacity open-addressing hash map: no allocation
// after construction (the serving feedback path is gated at zero
// steady-state allocations), deterministic eviction (the probe window's
// lowest-count slot), and single-writer semantics — each serving shard
// owns one corrector, touched only by its worker at micro-batch
// boundaries.
#ifndef CONFCARD_CE_RESIDUAL_H_
#define CONFCARD_CE_RESIDUAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "query/predicate.h"

namespace confcard {

class ResidualCorrector {
 public:
  /// Slot count, a power of two. Fixed for the corrector's lifetime;
  /// collisions evict within the probe window.
  static constexpr size_t kCapacity = 512;
  /// EWMA weight of the newest log-residual.
  static constexpr double kSmoothing = 0.25;
  /// Observations a subspace needs before its correction is applied.
  static constexpr uint64_t kMinObservations = 8;
  /// Clamp on the multiplicative correction factor (applied
  /// symmetrically: factors stay within [1/max, max]).
  static constexpr double kMaxCorrection = 16.0;

  ResidualCorrector();

  /// FNV-1a hash of the query's feature subspace: sorted (column, op)
  /// pairs, literals excluded. Two queries over the same columns with
  /// the same operator shapes share a subspace.
  static uint64_t SubspaceHash(const Query& query);

  /// `estimate` scaled by the learned correction for `fss` (identity
  /// until kMinObservations have been seen for that subspace).
  double Correct(uint64_t fss, double estimate) const;

  /// Folds one executed query's outcome into the subspace entry:
  /// bias <- (1-kSmoothing) * bias + kSmoothing * log((truth+1)/(est+1)).
  void Observe(uint64_t fss, double estimate, double truth);

  /// Drops every entry (stage-1 recalibration resets stale corrections).
  void Reset();

  /// Occupied slots.
  size_t entries() const { return entries_; }
  /// Lifetime Observe calls.
  uint64_t observed() const { return observed_; }
  /// Lifetime evictions (probe window full, lowest-count slot replaced).
  uint64_t evictions() const { return evictions_; }

 private:
  struct Slot {
    uint64_t fss = 0;
    uint64_t count = 0;  // 0 = empty
    double bias = 0.0;   // EWMA of log((truth+1)/(estimate+1))
  };

  static constexpr size_t kProbeWindow = 8;
  static constexpr size_t kMask = kCapacity - 1;
  static_assert((kCapacity & kMask) == 0 && kCapacity >= kProbeWindow,
                "slot indices are masked with kCapacity - 1");

  /// Slot serving `fss` for reads; nullptr when absent.
  const Slot* Find(uint64_t fss) const;
  /// Slot for writes: existing entry, a free probe-window slot, or the
  /// deterministically evicted lowest-count slot in the window.
  Slot* FindOrEvict(uint64_t fss);

  std::vector<Slot> slots_;
  size_t entries_ = 0;
  uint64_t observed_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace confcard

#endif  // CONFCARD_CE_RESIDUAL_H_
