#include "obs/profiler.h"

#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

// glibc exposes the thread-targeted notify method but (on some versions)
// not the symbolic name or the accessor macro for the tid field.
#ifndef SIGEV_THREAD_ID
#define SIGEV_THREAD_ID 4
#endif

namespace {

// Per-thread allocation counters maintained by the global operator
// new/delete replacements at the bottom of this file. Trivially
// constructible thread-locals: no dynamic initializer, so they are safe
// to bump from allocations made during static initialization.
thread_local uint64_t tls_alloc_count = 0;
thread_local uint64_t tls_alloc_bytes = 0;

}  // namespace

namespace confcard {
namespace obs {

namespace {
std::atomic<bool> g_resource_accounting{false};
}  // namespace

void SetSpanResourceAccountingEnabled(bool enabled) {
  g_resource_accounting.store(enabled, std::memory_order_relaxed);
}

bool SpanResourceAccountingEnabled() {
  return g_resource_accounting.load(std::memory_order_relaxed);
}

namespace prof {
namespace {

// Ring sizing: 4096 samples per thread is ~41 CPU-seconds at 99 Hz
// between drains (~1.8 MiB per registered thread). Overflow drops the
// newest sample and counts it — never blocks, never reallocates.
constexpr uint64_t kRingCapacity = 4096;
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0);

// CONFCARD_THREADS clamps at 256; a few extra slots cover the main
// thread plus short-lived test threads.
constexpr int kMaxProfThreads = 288;

constexpr uint32_t kMaxLabels = 256;
constexpr size_t kLabelLen = 64;

struct Sample {
  int32_t num_frames;
  int32_t num_spans;
  void* frames[kMaxFramesPerSample];
  uint32_t span_ids[kMaxSpanDepth];
};

// One SPSC ring per registered thread. Producer is the owning thread's
// SIGPROF handler; consumer is whichever thread drains. States are
// heap-allocated once and never freed (process lifetime, like the
// TraceStore), so the signal and crash paths can hold raw pointers.
struct ThreadState {
  std::atomic<uint64_t> head{0};
  std::atomic<uint64_t> tail{0};
  std::atomic<uint64_t> dropped{0};
  std::atomic<bool> timer_armed{false};
  uint32_t trace_tid = 0;
  timer_t timer{};
  Sample ring[kRingCapacity];
};

// Append-only registry: raw pointers plus a release-published count, so
// the crash flush can walk it without taking a lock. Registration goes
// through g_register_mu.
ThreadState* g_states[kMaxProfThreads];
std::atomic<int> g_state_count{0};
std::mutex g_register_mu;

thread_local ThreadState* tls_state = nullptr;

// Span label stack: POD thread-locals written with plain stores plus
// signal fences. Only the owning thread's own SIGPROF handler reads
// them, so same-thread interruption ordering is all that is needed.
thread_local uint32_t tls_span_ids[kMaxSpanDepth];
thread_local int tls_span_depth = 0;

// Interned label names in fixed storage so the crash path can read them
// without locks: bytes are fully written before the count is
// release-published. Once the table is full, further names collapse
// into the last slot (span names are static strings; 256 is ample).
char g_label_names[kMaxLabels][kLabelLen];
std::atomic<uint32_t> g_label_count{0};
std::mutex g_label_mu;

std::atomic<int> g_hz{0};

// Output path + pre-opened descriptor. The fd is opened at StartProfiler
// so the crash flush never has to open() while the process is dying.
char g_profile_path[4096] = {0};
std::atomic<int> g_profile_fd{-1};

// Folded stacks accumulated by completed drains. RenderFoldedProfile may
// run while sampling continues; earlier drains must persist so the final
// profile covers the whole run.
std::mutex g_drain_mu;
std::map<std::string, uint64_t>* g_aggregate = nullptr;

uint32_t InternLabel(std::string_view name) {
  std::lock_guard<std::mutex> lock(g_label_mu);
  const uint32_t n = g_label_count.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < n; ++i) {
    if (name == g_label_names[i]) return i;
  }
  if (n >= kMaxLabels) return kMaxLabels - 1;
  const size_t len = std::min(name.size(), kLabelLen - 1);
  std::memcpy(g_label_names[n], name.data(), len);
  g_label_names[n][len] = '\0';
  g_label_count.store(n + 1, std::memory_order_release);
  return n;
}

const char* LabelName(uint32_t id) {
  const uint32_t n = g_label_count.load(std::memory_order_acquire);
  return id < n ? g_label_names[id] : "?";
}

bool WriteAllBytes(int fd, const char* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

// Namespace-scope (exported under -rdynamic) so drain-time symbolization
// can recognize and strip the handler's own frames from every sample.
void ProfilerSignalHandler(int /*sig*/, siginfo_t* /*info*/,
                           void* /*ucontext*/) {
  const int saved_errno = errno;
  ThreadState* st = tls_state;
  if (st != nullptr && internal::g_profiling.load(std::memory_order_relaxed)) {
    const uint64_t head = st->head.load(std::memory_order_relaxed);
    const uint64_t tail = st->tail.load(std::memory_order_acquire);
    if (head - tail >= kRingCapacity) {
      st->dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      Sample& s = st->ring[head & (kRingCapacity - 1)];
      s.num_frames = backtrace(s.frames, kMaxFramesPerSample);
      int depth = tls_span_depth;
      std::atomic_signal_fence(std::memory_order_acquire);
      if (depth > kMaxSpanDepth) depth = kMaxSpanDepth;
      for (int i = 0; i < depth; ++i) s.span_ids[i] = tls_span_ids[i];
      s.num_spans = depth;
      st->head.store(head + 1, std::memory_order_release);
    }
  }
  errno = saved_errno;
}

namespace {

// Best-effort flush for fatal signals: drains every ring into raw
// (unsymbolized) folded lines with count 1 through a static buffer and
// plain write() calls — no allocation, no locks on the sampling state.
// Addresses instead of names is the deliberate trade: dladdr and the
// demangler are not async-signal-safe, and profcat merges count-1 lines
// fine. If the drain mutex happens to be free, previously aggregated
// (symbolized) lines are written first.
void CrashFlushProfile() {
  const int fd = g_profile_fd.load(std::memory_order_relaxed);
  if (fd < 0) return;
  internal::g_profiling.store(false, std::memory_order_relaxed);
  if (g_drain_mu.try_lock()) {
    if (g_aggregate != nullptr) {
      char count_buf[32];
      for (const auto& [stack, count] : *g_aggregate) {
        const int n = std::snprintf(count_buf, sizeof(count_buf), " %llu\n",
                                    static_cast<unsigned long long>(count));
        if (!WriteAllBytes(fd, stack.data(), stack.size())) return;
        if (!WriteAllBytes(fd, count_buf, static_cast<size_t>(n))) return;
      }
    }
    g_drain_mu.unlock();
  }
  char line[4096];
  const int num_states = g_state_count.load(std::memory_order_acquire);
  for (int i = 0; i < num_states; ++i) {
    ThreadState* st = g_states[i];
    const uint64_t head = st->head.load(std::memory_order_acquire);
    uint64_t tail = st->tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const Sample& s = st->ring[tail & (kRingCapacity - 1)];
      size_t off = static_cast<size_t>(std::snprintf(
          line, sizeof(line), "thread-%u", st->trace_tid));
      for (int k = 0; k < s.num_spans && off < sizeof(line); ++k) {
        off += static_cast<size_t>(std::snprintf(
            line + off, sizeof(line) - off, ";%s", LabelName(s.span_ids[k])));
      }
      // Leaf-most two frames are the handler and the signal trampoline.
      const int begin = std::min<int32_t>(2, s.num_frames);
      for (int j = s.num_frames - 1; j >= begin && off < sizeof(line); --j) {
        off += static_cast<size_t>(std::snprintf(
            line + off, sizeof(line) - off, ";%#lx",
            reinterpret_cast<unsigned long>(s.frames[j])));
      }
      off = std::min(off, sizeof(line) - 4);
      off += static_cast<size_t>(
          std::snprintf(line + off, sizeof(line) - off, " 1\n"));
      if (!WriteAllBytes(fd, line, off)) return;
    }
    st->tail.store(tail, std::memory_order_relaxed);
  }
}

// Creates and arms the calling thread's CPU-clock timer (registering a
// ring buffer first if the thread has none). Serialized against Stop by
// g_register_mu; rechecks the enabled flag under the lock so a timer is
// never armed after Stop began deleting them.
void RegisterSlow() {
  std::lock_guard<std::mutex> lock(g_register_mu);
  if (!internal::g_profiling.load(std::memory_order_relaxed)) return;
  ThreadState* st = tls_state;
  if (st == nullptr) {
    const int slot = g_state_count.load(std::memory_order_relaxed);
    if (slot >= kMaxProfThreads) return;
    st = new ThreadState();
    st->trace_tid = CurrentTraceThreadId();
    g_states[slot] = st;
    g_state_count.store(slot + 1, std::memory_order_release);
    tls_state = st;
  }
  if (st->timer_armed.load(std::memory_order_relaxed)) return;
  struct sigevent sev;
  std::memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = static_cast<pid_t>(::syscall(SYS_gettid));
  timer_t timer{};
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &timer) != 0) return;
  const int hz = std::max(1, g_hz.load(std::memory_order_relaxed));
  struct itimerspec its;
  std::memset(&its, 0, sizeof(its));
  its.it_interval.tv_nsec = 1000000000L / hz;
  its.it_value = its.it_interval;
  if (timer_settime(timer, 0, &its, nullptr) != 0) {
    timer_delete(timer);
    return;
  }
  st->timer = timer;
  st->timer_armed.store(true, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Drain-time symbolization

void AppendSanitizedFrame(std::string* out, std::string frame) {
  // Folded-format hygiene: ';' is the stack separator and a trailing
  // space-delimited token is the count, so neither may appear inside a
  // frame (spaces from template parameters are fine — parsers split on
  // the *last* space).
  for (char& c : frame) {
    if (c == ';' || c == '\n') c = ':';
  }
  *out += frame;
}

const std::string& SymbolizeFrame(void* pc,
                                  std::map<void*, std::string>* memo) {
  auto it = memo->find(pc);
  if (it != memo->end()) return it->second;
  std::string name;
  Dl_info info;
  std::memset(&info, 0, sizeof(info));
  if (dladdr(pc, &info) != 0 && info.dli_sname != nullptr) {
    int status = -1;
    char* dem = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    name = (status == 0 && dem != nullptr) ? dem : info.dli_sname;
    std::free(dem);
  } else if (info.dli_fname != nullptr) {
    // Anonymous-namespace / static functions are absent from the dynamic
    // symbol table even under -rdynamic; fall back to module+offset.
    const char* base = std::strrchr(info.dli_fname, '/');
    base = base != nullptr ? base + 1 : info.dli_fname;
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s+%#lx", base,
                  static_cast<unsigned long>(static_cast<char*>(pc) -
                                             static_cast<char*>(info.dli_fbase)));
    name = buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%#lx",
                  reinterpret_cast<unsigned long>(pc));
    name = buf;
  }
  return memo->emplace(pc, std::move(name)).first->second;
}

// Index of the first non-profiler frame (leaf side). The handler is an
// exported symbol, so when it symbolizes we can skip it plus the signal
// trampoline above it; otherwise fall back to skipping the canonical
// two leaf frames.
int FirstRealFrame(const Sample& s, std::map<void*, std::string>* memo) {
  const int limit = std::min<int32_t>(s.num_frames, 4);
  for (int i = 0; i < limit; ++i) {
    if (SymbolizeFrame(s.frames[i], memo).find("ProfilerSignalHandler") !=
        std::string::npos) {
      return std::min<int32_t>(i + 2, s.num_frames);
    }
  }
  return std::min<int32_t>(2, s.num_frames);
}

// Drains every ring into `agg` (folded stack -> count), advancing tails.
void DrainIntoAggregate(std::map<std::string, uint64_t>* agg) {
  std::map<uint32_t, std::string> thread_labels;
  for (const auto& [tid, label] : TraceStore::Instance().ThreadLabels()) {
    thread_labels[tid] = label;
  }
  std::map<void*, std::string> memo;
  std::string key;
  const int num_states = g_state_count.load(std::memory_order_acquire);
  for (int i = 0; i < num_states; ++i) {
    ThreadState* st = g_states[i];
    const uint64_t head = st->head.load(std::memory_order_acquire);
    uint64_t tail = st->tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const Sample& s = st->ring[tail & (kRingCapacity - 1)];
      key.clear();
      auto lit = thread_labels.find(st->trace_tid);
      if (lit != thread_labels.end()) {
        AppendSanitizedFrame(&key, lit->second);
      } else {
        key += "thread-" + std::to_string(st->trace_tid);
      }
      for (int k = 0; k < s.num_spans; ++k) {
        key += ';';
        AppendSanitizedFrame(&key, LabelName(s.span_ids[k]));
      }
      const int begin = FirstRealFrame(s, &memo);
      for (int j = s.num_frames - 1; j >= begin; --j) {
        key += ';';
        AppendSanitizedFrame(&key, SymbolizeFrame(s.frames[j], &memo));
      }
      ++(*agg)[key];
    }
    st->tail.store(tail, std::memory_order_release);
  }
}

void EmitProfileAtExit() {
  const Status st = StopProfilerAndWrite();
  if (st.ok()) {
    if (g_profile_path[0] != '\0') {
      std::fprintf(stderr, "cpu profile written to %s\n", g_profile_path);
    }
  } else {
    std::fprintf(stderr, "cpu profile emission failed: %s\n",
                 st.ToString().c_str());
  }
}

}  // namespace

void RegisterCurrentThread() {
  if (!ProfilerEnabled()) return;
  ThreadState* st = tls_state;
  if (st != nullptr && st->timer_armed.load(std::memory_order_relaxed)) return;
  RegisterSlow();
}

void PushSpanLabel(std::string_view name) {
  const int depth = tls_span_depth;
  if (depth < kMaxSpanDepth) {
    tls_span_ids[depth] = InternLabel(name);
    std::atomic_signal_fence(std::memory_order_release);
  }
  tls_span_depth = depth + 1;
}

void PopSpanLabel() {
  if (tls_span_depth > 0) tls_span_depth -= 1;
}

int SpanLabelDepth() { return tls_span_depth; }

uint64_t SampleCount() {
  uint64_t total = 0;
  const int num_states = g_state_count.load(std::memory_order_acquire);
  for (int i = 0; i < num_states; ++i) {
    total += g_states[i]->head.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t DroppedSampleCount() {
  uint64_t total = 0;
  const int num_states = g_state_count.load(std::memory_order_acquire);
  for (int i = 0; i < num_states; ++i) {
    total += g_states[i]->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

int SamplingHz() {
  return ProfilerEnabled() ? g_hz.load(std::memory_order_relaxed) : 0;
}

std::string RenderFoldedProfile() {
  std::lock_guard<std::mutex> lock(g_drain_mu);
  if (g_aggregate == nullptr) g_aggregate = new std::map<std::string, uint64_t>();
  DrainIntoAggregate(g_aggregate);
  std::string out;
  for (const auto& [stack, count] : *g_aggregate) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

Status StartProfiler(const std::string& path, int hz) {
  if (path.empty()) {
    return Status::InvalidArgument("profiler output path is empty");
  }
  if (internal::g_profiling.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("profiler already running");
  }
  hz = std::clamp(hz, 1, 4000);
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open profile output: " + path);
  }
  {
    // A previous Start/Stop cycle may have left samples behind; this run
    // starts from zero.
    std::lock_guard<std::mutex> lock(g_register_mu);
    const int num_states = g_state_count.load(std::memory_order_relaxed);
    for (int i = 0; i < num_states; ++i) {
      g_states[i]->head.store(0, std::memory_order_relaxed);
      g_states[i]->tail.store(0, std::memory_order_relaxed);
      g_states[i]->dropped.store(0, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<std::mutex> lock(g_drain_mu);
    if (g_aggregate != nullptr) g_aggregate->clear();
  }
  std::snprintf(g_profile_path, sizeof(g_profile_path), "%s", path.c_str());
  const int old_fd = g_profile_fd.exchange(fd);
  if (old_fd >= 0) ::close(old_fd);
  g_hz.store(hz, std::memory_order_relaxed);
  // Force the unwinder's one-time setup (which may allocate and dlopen
  // libgcc) to happen here rather than inside the first signal delivery.
  void* warm[4];
  backtrace(warm, 4);
  static const bool handler_installed = [] {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &ProfilerSignalHandler;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    RegisterCrashFlush(&CrashFlushProfile);
    return true;
  }();
  (void)handler_installed;
  internal::g_profiling.store(true, std::memory_order_relaxed);
  SetSpanResourceAccountingEnabled(true);
  RegisterCurrentThread();
  return Status::OK();
}

Status StopProfilerAndWrite() {
  if (!internal::g_profiling.exchange(false)) return Status::OK();
  {
    std::lock_guard<std::mutex> lock(g_register_mu);
    const int num_states = g_state_count.load(std::memory_order_relaxed);
    for (int i = 0; i < num_states; ++i) {
      ThreadState* st = g_states[i];
      // POSIX timers are process-wide objects: deleting another (even
      // already-exited) thread's timer from here is well-defined. A
      // final expiry racing the delete is harmless — the handler
      // rechecks the enabled flag.
      if (st->timer_armed.exchange(false)) timer_delete(st->timer);
    }
  }
  if (!TraceTimelineEnabled()) SetSpanResourceAccountingEnabled(false);
  const std::string folded = RenderFoldedProfile();
  Metrics().GetGauge("prof.samples").Set(static_cast<double>(SampleCount()));
  Metrics().GetGauge("prof.dropped_samples")
      .Set(static_cast<double>(DroppedSampleCount()));
  Metrics().GetGauge("prof.hz")
      .Set(static_cast<double>(g_hz.load(std::memory_order_relaxed)));
  const int fd = g_profile_fd.exchange(-1);
  if (fd < 0) return Status::OK();
  const bool written = WriteAllBytes(fd, folded.data(), folded.size());
  ::close(fd);
  if (!written) {
    return Status::IOError(std::string("write failed for profile output: ") +
                           g_profile_path);
  }
  return Status::OK();
}

bool InstallProfiler() {
  static const bool installed = [] {
    const char* env = std::getenv("CONFCARD_PROFILE");
    if (env == nullptr || env[0] == '\0') return false;
    std::string spec(env);
    int hz = 99;
    const size_t colon = spec.rfind(':');
    if (colon != std::string::npos && colon + 1 < spec.size()) {
      const std::string suffix = spec.substr(colon + 1);
      if (suffix.find_first_not_of("0123456789") == std::string::npos) {
        hz = std::atoi(suffix.c_str());
        spec.resize(colon);
      }
    }
    const Status st = StartProfiler(spec, hz);
    if (!st.ok()) {
      std::fprintf(stderr, "profiler arming failed: %s\n",
                   st.ToString().c_str());
      return false;
    }
    std::atexit(&EmitProfileAtExit);
    return true;
  }();
  return installed;
}

uint64_t ThreadAllocCount() { return tls_alloc_count; }
uint64_t ThreadAllocBytes() { return tls_alloc_bytes; }

double ThreadCpuMicros() {
  struct timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

void ThreadContextSwitches(uint64_t* voluntary, uint64_t* involuntary) {
  struct rusage ru;
  if (getrusage(RUSAGE_THREAD, &ru) != 0) {
    *voluntary = 0;
    *involuntary = 0;
    return;
  }
  *voluntary = static_cast<uint64_t>(ru.ru_nvcsw);
  *involuntary = static_cast<uint64_t>(ru.ru_nivcsw);
}

}  // namespace prof
}  // namespace obs
}  // namespace confcard

// ---------------------------------------------------------------------------
// Global operator new/delete replacement: the default behavior (malloc +
// bad_alloc) plus two thread-local increments, feeding the per-span
// allocation counters. The full C++17 variant set is replaced so no
// default definition can be pulled in from a sanitizer runtime archive
// (which would clash with these strong symbols); the aligned forms route
// through posix_memalign, and every delete is plain free, so mixing with
// the defaults stays well-defined. Sanitizers still see every byte:
// their malloc/free interceptors sit underneath these calls.

namespace {

inline void* CountedAlloc(std::size_t size) noexcept {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p != nullptr) {
    ++tls_alloc_count;
    tls_alloc_bytes += size;
  }
  return p;
}

inline void* CountedAlignedAlloc(std::size_t size,
                                 std::size_t align) noexcept {
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? 1 : size) != 0) return nullptr;
  ++tls_alloc_count;
  tls_alloc_bytes += size;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}

// GCC's -Wmismatched-new-delete misreads these: every new above mallocs.
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
