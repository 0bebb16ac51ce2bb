#include "common/fault.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <thread>

#include "obs/metrics.h"

namespace confcard {
namespace fault {
namespace {

// Retry salt mixed into every Poll on this thread (see ScopedRetrySalt).
thread_local uint64_t g_retry_salt = 0;

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// splitmix64 finalizer: full-avalanche mixing of the decision inputs.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Uniform [0, 1) from the top 53 bits.
double ToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

const char* KindToString(Kind kind) {
  switch (kind) {
    case Kind::kNone:
      return "none";
    case Kind::kNan:
      return "nan";
    case Kind::kFail:
      return "fail";
    case Kind::kSlow:
      return "slow";
  }
  return "none";
}

Result<std::vector<FaultSpec>> ParseFaultSpecs(std::string_view text) {
  std::vector<FaultSpec> specs;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t semi = text.find(';', pos);
    std::string_view entry = Trim(
        text.substr(pos, semi == std::string_view::npos ? semi : semi - pos));
    pos = semi == std::string_view::npos ? text.size() + 1 : semi + 1;
    if (entry.empty()) continue;

    const size_t colon = entry.rfind(':');
    const size_t at = entry.rfind('@');
    if (colon == std::string_view::npos || at == std::string_view::npos ||
        at < colon) {
      return Status::InvalidArgument(
          "fault spec '" + std::string(entry) +
          "' is not of the form site:kind@rate");
    }
    FaultSpec spec;
    spec.site = std::string(Trim(entry.substr(0, colon)));
    if (spec.site.empty()) {
      return Status::InvalidArgument("fault spec '" + std::string(entry) +
                                     "' has an empty site");
    }
    const std::string_view kind = Trim(entry.substr(colon + 1, at - colon - 1));
    if (kind == "nan") {
      spec.kind = Kind::kNan;
    } else if (kind == "fail") {
      spec.kind = Kind::kFail;
    } else if (kind == "slow") {
      spec.kind = Kind::kSlow;
    } else {
      return Status::InvalidArgument("fault kind '" + std::string(kind) +
                                     "' is not nan|fail|slow");
    }
    const std::string rate_str(Trim(entry.substr(at + 1)));
    char* end = nullptr;
    spec.rate = std::strtod(rate_str.c_str(), &end);
    if (rate_str.empty() || end != rate_str.c_str() + rate_str.size() ||
        !std::isfinite(spec.rate) || spec.rate < 0.0 || spec.rate > 1.0) {
      return Status::InvalidArgument("fault rate '" + rate_str +
                                     "' is not a number in [0, 1]");
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

Registry& Registry::Instance() {
  static Registry* registry = new Registry();  // never destroyed
  return *registry;
}

Registry::Registry() {
  const char* spec = std::getenv("CONFCARD_FAULTS");
  if (spec == nullptr || spec[0] == '\0') return;
  const Status st = ConfigureFromString(spec);
  if (!st.ok()) {
    std::fprintf(stderr, "CONFCARD_FAULTS ignored: %s\n",
                 st.ToString().c_str());
  }
}

Status Registry::ConfigureFromString(const std::string& text) {
  CONFCARD_ASSIGN_OR_RETURN(std::vector<FaultSpec> specs,
                            ParseFaultSpecs(text));
  Clear();
  for (const FaultSpec& spec : specs) {
    Site& site = sites_[spec.site];
    site.site_hash = Fnv1a(spec.site);
    Arm arm;
    arm.kind = spec.kind;
    arm.rate = spec.rate;
    // Each arm draws from its own hash stream so stacking, say, nan@0.1
    // and fail@0.1 on one site injects each independently.
    arm.salt = Mix(site.site_hash ^ (site.arms.size() + 1));
    arm.injected = &obs::Metrics().GetCounter(
        "fault.injected." + spec.site + "." + KindToString(spec.kind));
    site.arms.push_back(arm);
  }
  enabled_.store(!sites_.empty(), std::memory_order_relaxed);
  return Status::OK();
}

void Registry::Clear() {
  enabled_.store(false, std::memory_order_relaxed);
  sites_.clear();
}

Kind Registry::Poll(std::string_view site, uint64_t key) const {
  if (!enabled()) return Kind::kNone;
  const auto it = sites_.find(site);
  if (it == sites_.end()) return Kind::kNone;
  for (const Arm& arm : it->second.arms) {
    if (arm.rate <= 0.0) continue;
    const uint64_t h =
        Mix(it->second.site_hash ^ Mix(key ^ arm.salt) ^ Mix(g_retry_salt));
    if (arm.rate >= 1.0 || ToUnit(h) < arm.rate) {
      arm.injected->Increment();
      return arm.kind;
    }
  }
  return Kind::kNone;
}

void Registry::SleepSlow() const {
  std::this_thread::sleep_for(std::chrono::microseconds(slow_micros_));
}

uint64_t KeyOf(std::string_view s) { return Fnv1a(s); }

double PerturbValue(std::string_view site, uint64_t key, double value) {
  const Registry& registry = Registry::Instance();
  switch (registry.Poll(site, key)) {
    case Kind::kNone:
      return value;
    case Kind::kNan:
      return std::numeric_limits<double>::quiet_NaN();
    case Kind::kFail:
      return -1.0;
    case Kind::kSlow:
      registry.SleepSlow();
      return value;
  }
  return value;
}

Status Check(std::string_view site, uint64_t key) {
  const Registry& registry = Registry::Instance();
  switch (registry.Poll(site, key)) {
    case Kind::kFail:
      return Status::Internal("injected fault: " + std::string(site));
    case Kind::kSlow:
      registry.SleepSlow();
      return Status::OK();
    default:
      return Status::OK();
  }
}

ScopedRetrySalt::ScopedRetrySalt(uint64_t salt) : saved_(g_retry_salt) {
  g_retry_salt = salt;
}

ScopedRetrySalt::~ScopedRetrySalt() { g_retry_salt = saved_; }

}  // namespace fault
}  // namespace confcard
