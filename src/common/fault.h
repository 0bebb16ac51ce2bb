// Deterministic fault injection. The paper's central claim is that
// learned estimators fail silently; this registry lets tests and the
// fault-sweep bench make them fail *on purpose* — reproducibly — so the
// guarded serving path (src/ce/guarded.h) can be exercised end to end.
//
// Faults are configured from the CONFCARD_FAULTS environment variable
// (or programmatically, for tests) as a semicolon-separated list of
//
//   <site>:<kind>@<rate>      e.g.  naru.forward:nan@0.02;io.csv:fail@0.1
//
// where <site> names an injection point compiled into the library,
// <kind> is one of
//   nan   — corrupt a produced value to quiet NaN
//   fail  — produce a negative sentinel value / an Internal error Status
//   slow  — sleep slow_micros() microseconds (default 5000)
// and <rate> is an injection probability in [0, 1].
//
// Determinism: whether a fault fires at a site is a pure function of
// (site, caller-supplied key, arm index, retry salt). Callers pass a key
// that is stable across runs and thread counts — a content hash of the
// query for model forwards, the model seed for training, a path hash for
// IO — so a fault sweep is bit-reproducible at any CONFCARD_THREADS and
// identical between batched and per-query execution.
//
// Overhead when disabled: Enabled() is one relaxed atomic load; every
// injection point is gated on it, so an unfaulted run takes a single
// predictable branch per site.
#ifndef CONFCARD_COMMON_FAULT_H_
#define CONFCARD_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace confcard {
namespace obs {
class Counter;
}  // namespace obs

namespace fault {

/// What an injection point should do when its fault fires.
enum class Kind {
  kNone = 0,
  kNan,
  kFail,
  kSlow,
};

/// "nan" / "fail" / "slow" / "none".
const char* KindToString(Kind kind);

/// One parsed arm of a CONFCARD_FAULTS spec.
struct FaultSpec {
  std::string site;
  Kind kind = Kind::kNone;
  double rate = 0.0;
};

/// Parses the CONFCARD_FAULTS grammar ("site:kind@rate;..."). Empty
/// input yields an empty list; malformed entries produce
/// InvalidArgument naming the offending token.
Result<std::vector<FaultSpec>> ParseFaultSpecs(std::string_view text);

/// Process-wide fault registry, configured once from CONFCARD_FAULTS at
/// first use. Configure/Clear must not race with in-flight Poll calls
/// (tests and benches reconfigure between runs, never during one).
class Registry {
 public:
  static Registry& Instance();

  /// Cheap hot-path gate: one relaxed atomic load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// The fault (if any) to inject at `site` for deterministic key
  /// `key`. Arms for the same site are evaluated in configuration order
  /// with independent hash streams; the first that fires wins. Bumps
  /// "fault.injected.<site>.<kind>" on injection.
  Kind Poll(std::string_view site, uint64_t key) const;

  /// Replaces the active spec (tests/benches). An empty string clears.
  Status ConfigureFromString(const std::string& text);
  /// Removes all faults and lowers the enabled gate.
  void Clear();

  /// Sleep duration injected for Kind::kSlow, in microseconds.
  uint64_t slow_micros() const { return slow_micros_; }
  void set_slow_micros(uint64_t us) { slow_micros_ = us; }
  /// Blocks the calling thread for slow_micros().
  void SleepSlow() const;

 private:
  Registry();

  struct Arm {
    Kind kind = Kind::kNone;
    double rate = 0.0;
    uint64_t salt = 0;             // per-arm hash stream separator
    obs::Counter* injected = nullptr;
  };
  struct Site {
    uint64_t site_hash = 0;
    std::vector<Arm> arms;
  };

  std::atomic<bool> enabled_{false};
  uint64_t slow_micros_ = 5000;
  std::map<std::string, Site, std::less<>> sites_;
};

/// Shorthand for Registry::Instance().enabled().
inline bool Enabled() { return Registry::Instance().enabled(); }

/// Deterministic key for string-identified call sites (file paths).
uint64_t KeyOf(std::string_view s);

/// Injection helper for value-producing sites (model forwards). Returns
/// `value` untouched when no fault fires; quiet NaN for kNan; -1.0 (an
/// impossible cardinality, caught by the guard's sanitizer) for kFail;
/// sleeps and then returns `value` for kSlow.
double PerturbValue(std::string_view site, uint64_t key, double value);

/// Injection helper for Status-producing sites (Train, IO). Returns
/// Internal("injected fault: <site>") for kFail; sleeps for kSlow and
/// returns OK; ignores kNan (no value to corrupt).
Status Check(std::string_view site, uint64_t key);

/// Mixes an attempt ordinal into every Poll on the current thread, so a
/// guarded retry of a deterministically-faulted query re-rolls the
/// injection dice instead of deterministically failing again (modelling
/// transient faults). RAII: restores the previous salt on destruction.
class ScopedRetrySalt {
 public:
  explicit ScopedRetrySalt(uint64_t salt);
  ~ScopedRetrySalt();

  ScopedRetrySalt(const ScopedRetrySalt&) = delete;
  ScopedRetrySalt& operator=(const ScopedRetrySalt&) = delete;

 private:
  uint64_t saved_;
};

}  // namespace fault
}  // namespace confcard

#endif  // CONFCARD_COMMON_FAULT_H_
