#!/usr/bin/env bash
# Tier-1 verify + perfbench work-counter gate, with optional sanitizer lanes.
#
# Usage:
#   ci/check.sh [build-dir]                 # Release + perfbench self-test
#                                           # + exact work-counter gate
#   ci/check.sh --sanitize asan [build-dir] # RelWithDebInfo at -O2 -g with
#                                           # asserts on + ASan/UBSan, tiers only
#   ci/check.sh --sanitize tsan [build-dir] # RelWithDebInfo + TSan (incl. stress)
#   ci/check.sh --sanitize ubsan [build-dir]# Debug + UBSan, tiers only
#   ci/check.sh --clang [build-dir]         # Clang build: thread-safety analysis
#                                           # as errors (skips if no clang++)
#   ci/check.sh --lint [build-dir]          # clang-tidy over src/ via the
#                                           # compile db (skips if absent)
#
# Tiered fail-fast ordering in every lane: unit/obs/quant (one fast
# batch: kernels, models, and the metrics/exporter layer with its
# observe-only serving contract) → online → persist → ingest → serving
# (→ stress). The online continual-learning tier gates the durable-state
# (persist) tier, which gates the streaming-ingest tier (wire codec, bus
# backpressure, threaded-ingest determinism), which gates the serving
# integration tier. The stress
# tier is selected with an explicit -L '^stress$' — the tier partition
# being total (every test exactly one tier label) is itself asserted by
# the tier_labels_check test in the unit tier. The TSan lane additionally
# runs the stress tier: that is where the threaded serving replays, the
# online-update daemon races and the concurrent metrics scrape live.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SANITIZE=""
MODE=""
BUILD_DIR=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --sanitize)
      [[ $# -ge 2 ]] || { echo "--sanitize needs a lane" >&2; exit 2; }
      SANITIZE="$2"; shift 2 ;;
    --sanitize=*)
      SANITIZE="${1#--sanitize=}"; shift ;;
    --clang)
      MODE="clang"; shift ;;
    --lint)
      MODE="lint"; shift ;;
    -h|--help)
      sed -n '2,/^[^#]/{/^#/p;}' "${BASH_SOURCE[0]}"; exit 0 ;;
    -*)
      # Reject unknown flags loudly: silently treating a typoed --sanitize
      # as the build dir would run the wrong lane and report green.
      echo "unknown option '$1' (see --help)" >&2; exit 2 ;;
    *)
      BUILD_DIR="$1"; shift ;;
  esac
done

if [[ -n "${MODE}" && -n "${SANITIZE}" ]]; then
  echo "--${MODE} and --sanitize are mutually exclusive lanes" >&2
  exit 2
fi

# ------------------------------------------------------------ clang-tidy lane
# Static analysis only: configure for the compile database, then run
# clang-tidy (checks in .clang-tidy, WarningsAsErrors '*') over every src/
# TU. Deliberately NOT run through ccache — clang-tidy re-parses the
# compile command and a `ccache c++ ...` entry would be misread as
# compiler=ccache. Skips (exit 0) where clang-tidy is not installed so the
# dev container stays green; the CI clang lane installs it and gates.
if [[ "${MODE}" == "lint" ]]; then
  TIDY=""
  for cand in clang-tidy clang-tidy-21 clang-tidy-20 clang-tidy-19 \
              clang-tidy-18 clang-tidy-17 clang-tidy-16 clang-tidy-15 \
              clang-tidy-14; do
    if command -v "${cand}" >/dev/null 2>&1; then TIDY="${cand}"; break; fi
  done
  if [[ -z "${TIDY}" ]]; then
    echo "== lint lane: no clang-tidy on PATH — skipping =="
    exit 0
  fi
  BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-lint}"
  echo "== configure (lint lane: ${BUILD_DIR}, compile database only) =="
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
    -DCMAKE_CXX_COMPILER_LAUNCHER=
  echo "== clang-tidy (${TIDY}, .clang-tidy, warnings-as-errors) =="
  mapfile -t TIDY_SOURCES < <(find "${REPO_ROOT}/src" -name '*.cpp' | sort)
  "${TIDY}" -p "${BUILD_DIR}" --quiet "${TIDY_SOURCES[@]}"
  echo "== OK (lint lane: ${#TIDY_SOURCES[@]} TUs clean) =="
  exit 0
fi

# --------------------------------------------------------------- clang lane
# Locate a clang++ for the thread-safety-as-errors build; the lane is a
# no-op skip where only GCC exists (the analysis is Clang-only — GCC
# expands the annotation macros to nothing).
if [[ "${MODE}" == "clang" ]]; then
  CLANGXX="${PP_CLANGXX:-}"
  if [[ -z "${CLANGXX}" ]]; then
    for cand in clang++ clang++-21 clang++-20 clang++-19 clang++-18 \
                clang++-17 clang++-16 clang++-15 clang++-14; do
      if command -v "${cand}" >/dev/null 2>&1; then CLANGXX="${cand}"; break; fi
    done
  fi
  if [[ -z "${CLANGXX}" ]]; then
    echo "== clang lane: no clang++ on PATH — skipping =="
    exit 0
  fi
fi

CMAKE_ARGS=()
RUN_STRESS=1
RUN_BENCH=1
case "${SANITIZE}" in
  "")
    if [[ "${MODE}" == "clang" ]]; then
      BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-clang}"
      CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER="${CLANGXX}")
      # ci/perfbench_counters.json was generated with GCC 12 on an AVX2
      # host; another compiler and its library allocate differently.
      RUN_BENCH=0
    else
      BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build}"
    fi
    ;;
  asan|address)
    BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-asan}"
    # Optimized: some undefined behaviour exists only in optimized code (a
    # Debug build passed a null thread-local load that -O2 exposes).
    # RelWithDebInfo's flags lose their -DNDEBUG so the debug-only contract
    # asserts (the finite-weights zero-skip check among them) still run.
    CMAKE_ARGS+=(-DPP_SANITIZE=address,undefined
                 -DCMAKE_BUILD_TYPE=RelWithDebInfo
                 "-DCMAKE_CXX_FLAGS_RELWITHDEBINFO=-O2 -g")
    RUN_STRESS=0; RUN_BENCH=0
    ;;
  tsan|thread)
    BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-tsan}"
    # RelWithDebInfo: plain Debug under TSan is too slow to be useful, and
    # the races TSan hunts are in the threading structure, not the -O level.
    CMAKE_ARGS+=(-DPP_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo)
    RUN_BENCH=0
    ;;
  ubsan|undefined)
    BUILD_DIR="${BUILD_DIR:-${REPO_ROOT}/build-ubsan}"
    CMAKE_ARGS+=(-DPP_SANITIZE=undefined -DCMAKE_BUILD_TYPE=Debug)
    RUN_STRESS=0; RUN_BENCH=0
    ;;
  *)
    echo "unknown sanitize lane '${SANITIZE}' (asan|tsan|ubsan)" >&2
    exit 2 ;;
esac

JOBS="$(nproc 2>/dev/null || echo 2)"
# Sanitizer runtime knobs: every finding is fatal, so a green tier really
# means zero findings. second_deadlock_stack aids lock-order reports; the
# TSan suppressions file carries exactly one entry for libstdc++'s
# std::atomic<shared_ptr> lock-bit protocol (GCC PR 101761) — see
# ci/tsan.supp before adding anything to it.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1:suppressions=${REPO_ROOT}/ci/tsan.supp}"

if command -v ccache >/dev/null 2>&1; then
  CMAKE_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
# Extra configure args (e.g. CI passes -DPP_SANITIZE_FETCH_GTEST=ON so the
# sanitizer lanes compile gtest from source with matching instrumentation).
if [[ -n "${PP_CHECK_CMAKE_ARGS:-}" ]]; then
  read -r -a EXTRA_ARGS <<< "${PP_CHECK_CMAKE_ARGS}"
  CMAKE_ARGS+=("${EXTRA_ARGS[@]}")
fi

echo "== configure (${SANITIZE:-${MODE:-release}} lane: ${BUILD_DIR}) =="
# The ${arr[@]+...} form keeps an empty array from tripping `set -u` on
# bash < 4.4 (macOS ships 3.2).
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  ${CMAKE_ARGS[@]+"${CMAKE_ARGS[@]}"}

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

run_tier() {
  local label_regex="$1" title="$2"
  echo "== ctest: ${title} =="
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" \
    -L "${label_regex}"
}

# The lint tier goes first — it is the cheapest failure. Binary lint scans
# this lane's own objects (so sanitizer builds are checked too); the
# negative-compile check self-skips (77) without clang++.
run_tier '^lint$' "lint (binary/source/negative-compile)"

run_tier '^(unit|obs|quant)$' "unit + obs + quant (fail fast)"

# Forced-portable lane: on AVX2 runners the dispatcher resolves to the
# SIMD kernels, which would leave the naive loops (the only path non-AVX2
# hosts and -DPP_SIMD_KERNELS=OFF builds ever run) untested end to end.
# Re-run the kernel parity suite (the f32 head's gemv_nz lanes among it)
# and the serving-kernel suite (fused int8 step and head, fused f32 head,
# gate sigmoid/tanh) with the portable kernel forced via the env override.
for suite in tensor_gemm_test quantized_inference_test; do
  echo "== ${suite} (PP_GEMM_FORCE_KERNEL=naive, portable path) =="
  PP_GEMM_FORCE_KERNEL=naive "${BUILD_DIR}/${suite}" --gtest_brief=1
done

if [[ "${SANITIZE}" == asan || "${SANITIZE}" == address ]]; then
  # Packed-panel buffer overruns live only in the ISA TUs; force the
  # SIMD kernels on under ASan so tile/tail arithmetic (the AVX2 panels,
  # the VNNI panels, the f32 gemv passes and masked tails) is exercised
  # with redzones even if this runner's dispatch would pick them anyway
  # (and loudly exercises the degrade path when it can't).
  for suite in tensor_gemm_test quantized_inference_test; do
    echo "== ${suite} (PP_GEMM_FORCE_KERNEL=simd, ASan) =="
    PP_GEMM_FORCE_KERNEL=simd "${BUILD_DIR}/${suite}" --gtest_brief=1
  done
fi

run_tier '^online$' "online"
run_tier '^persist$' "persist (durable state)"
run_tier '^ingest$' "ingest (wire codec / bus / threaded determinism)"
run_tier '^serving$' "serving"
if [[ "${RUN_STRESS}" == 1 ]]; then
  run_tier '^stress$' "stress"
fi

if [[ "${RUN_BENCH}" == 1 ]]; then
  echo "== bench smoke: section 7.1 parallelism (naive vs simd GEMM kernel) =="
  "${BUILD_DIR}/bench_section7_parallelism"

  echo "== perfbench self-test (build + every workload, tiny) =="
  # run.py is the only build of perfbench/: a library name it calls can be
  # renamed with every tier above still green, and only this catches it.
  python3 "${REPO_ROOT}/perfbench/run.py" --self-test

  echo "== perfbench work counters vs ci/perfbench_counters.json (exact) =="
  # MACs, KV lookups and bytes, wire and segment-log bytes, learner rounds
  # and single-threaded allocations per decision: none depends on timing,
  # so they are compared exactly, not against a band.
  python3 "${REPO_ROOT}/ci/perfbench_counters.py"
fi

echo "== OK (${SANITIZE:-${MODE:-release}} lane) =="
