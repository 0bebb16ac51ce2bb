#!/usr/bin/env bash
# Builds the tree under a sanitizer and runs the concurrent hot-path
# surface: every test labeled obs-smoke (sharded metrics, event-log
# merge, trace export, rolling windows), parallel-smoke (thread pool
# dispatch + the tensor-buffer arena), prof-smoke (sampling
# profiler: SIGPROF handler + lock-free rings under an oversubscribed
# hammer), and serve-smoke (serving front-end: MPMC queue hammer,
# micro-batcher/shard pipeline, lock-free circuit breaker, plus the
# bench_serving smoke with its bit-identity and zero-alloc gates),
# drift-smoke (the self-healing loop: feedback rings, sliding-window
# recalibration, staged-degradation transitions, plus the bench_drift
# smoke with its replay and zero-alloc gates), fault-smoke (the
# fault registry, the guard's batched attempt 0 and per-query ladder,
# plus the bench_faults sweep, which drives the guard with faults armed
# from a ParallelFor), harness-smoke (harness_test and
# determinism_test: the PI runners shared by the single-table and join
# harnesses, with concurrent fold and CQR-head training and the
# estimate cache), and kernel-smoke (simd_test, tensor_test,
# layers_test, optimizer_nn_test, mscn_model_test: the register-tiled
# GEMMs with their tile tails and packed-term buffers, the vector Adam
# step and the parameter-only backward). A clean exit means the
# sanitizer saw no races (tsan), memory errors (asan) or undefined
# behaviour (ubsan) in the hot-path
# record/merge/sample/serve/guard/harness/kernel code.
#
# Usage: tools/run_tsan_obs.sh [tsan|asan|ubsan]   (default: tsan)
#
# The argument is a CMakePresets.json preset name. The label list above
# lives once, in the hidden `sanitizer-smoke` test preset that the
# `tsan`, `asan` and `ubsan` test presets inherit. `tsan` is the
# historical default; `asan` runs the same labeled suite under
# AddressSanitizer with the real tensor arena, which poisons parked
# buffers so a use of tensor storage after its release is still
# reported; `ubsan` runs it under UndefinedBehaviorSanitizer with
# recovery off, so the first report fails its test. The sanitizer
# builds take the host's widest SIMD lanes (16 on AVX-512 hosts); the
# 8-lane AVX2 kernels are built and run through the full suite by the
# separate `simd-avx2` preset (`cmake --preset simd-avx2 && cmake
# --build --preset simd-avx2 && ctest --preset simd-avx2`), as the
# scalar reference is by `simd-off`.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
preset="${1:-tsan}"

cd "${repo_root}"
cmake --preset "${preset}"
cmake --build --preset "${preset}" -j "$(nproc)"

# halt_on_error: fail the suite on the first race instead of logging on.
# Harmless under non-TSan presets.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
# Tiny scale: sanitizers are ~10x slower and the bugs we hunt are
# scale-free.
export CONFCARD_SCALE="${CONFCARD_SCALE:-0.05}"

ctest --preset "${preset}" --output-on-failure
echo "Sanitizer suite passed (preset: ${preset})."
