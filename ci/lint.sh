#!/usr/bin/env bash
# Project-specific lints, registered as ctest tests in the `lint` tier.
#
# Usage:
#   ci/lint.sh --binary [build-dir]   # AVX2/AVX-512/SSE4.2 containment
#   ci/lint.sh --source               # raw sync primitives outside src/util/
#
# --binary  Machine-checks the TU-isolation rule behind the runtime-
#           dispatched kernels (CMakeLists.txt): only the *_avx2.cpp TUs
#           are compiled with -mavx2 -mfma, only the *_avx512.cpp TUs
#           with -mavx512* and only the *_sse42.cpp TUs with -msse4.2, so
#           no other object may contain a VEX-encoded AVX/FMA instruction,
#           no object outside *_avx512 may contain AVX-512 code and no
#           baseline object may contain the SSE4.2 crc32 instruction. If
#           one does (an inlined std:: template instantiated in an ISA TU
#           and picked from its COMDAT, a stray flag), the binary faults
#           with SIGILL on older hosts before the runtime dispatcher ever
#           runs. Disassembles every object: baseline objects fail on
#           ymm/zmm registers, v-prefixed FMA / madd mnemonics, any
#           AVX-512 mark or a crc32 mnemonic (the instruction, not the
#           crc32c in symbol names); *_sse42 objects fail on the AVX2
#           and AVX-512 patterns; *_avx2 objects fail on an AVX-512 mark —
#           zmm, a mask register k0-k7, xmm/ymm16-31 (an AVX-512VL
#           encoding that needs no zmm) or vpdpbus*. The ISA objects
#           double as control groups: *_avx2 must show the AVX2 pattern,
#           *_avx512 must show zmm or vpdpbusd and *_sse42 must show
#           crc32, or the lint is vacuous. Each control applies only
#           when CMakeCache.txt records its TUs as compiled with their
#           ISA (PP_SIMD_KERNELS_COMPILED, PP_AVX512_KERNELS_COMPILED,
#           PP_SSE42_KERNELS_COMPILED =ON); -DPP_SIMD_KERNELS=OFF or a
#           compiler without the flag builds those TUs as stubs.
#           Exits 77 (ctest SKIP) when no disassembler is on PATH.
#
# --source  Enforces the layering contract behind the Clang Thread Safety
#           retrofit: outside src/util/, concurrency must go through the
#           annotated pp::Mutex / pp::MutexLock / pp::CondVar / pp::Thread
#           wrappers. A raw std::mutex member is invisible to the analysis,
#           so one unconverted file would silently shrink the checked
#           surface. Comment-stripped grep over src/ minus src/util/.
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

usage() { sed -n '2,7p' "${BASH_SOURCE[0]}"; }

binary_lint() {
  local build_dir="$1"
  if [[ ! -d "${build_dir}" ]]; then
    echo "binary lint: no such build dir: ${build_dir}" >&2
    exit 2
  fi

  local objdump=""
  for cand in objdump llvm-objdump; do
    if command -v "${cand}" >/dev/null 2>&1; then
      objdump="${cand}"
      break
    fi
  done
  if [[ -z "${objdump}" ]]; then
    echo "binary lint: no objdump/llvm-objdump on PATH — skipping"
    exit 77
  fi

  # v-prefixed (VEX-encoded) mnemonics and wide registers only: plain SSE2
  # (xmm0-15 registers, mulps, pmaddwd) is part of the x86-64 baseline and
  # fine. Even a 128-bit vfmadd...ss needs AVX+FMA, hence the v-forms are
  # banned regardless of register width.
  local avx2_pattern='%[yz]mm|\bvfn?m(add|sub)|\bvpmadd'
  local avx512_pattern='%zmm|%k[0-7]\b|%[xy]mm(1[6-9]|2[0-9]|3[01])\b|\bvpdpbus'
  local avx512_control='zmm|\bvpdpbusd'
  # The mnemonic column: objdump prints a bare `crc32` for register
  # operands and crc32b/w/l/q for memory ones; the leading blank keeps the
  # crc32c in symbol names (pp::storage::crc32c) out.
  local sse42_pattern='[[:space:]]crc32[bwlq]?[[:space:]]'

  local baseline=() avx2=() avx512=() sse42=()
  while IFS= read -r -d '' obj; do
    case "$(basename "${obj}")" in
      *_avx512*) avx512+=("${obj}") ;;
      *_avx2*) avx2+=("${obj}") ;;
      *_sse42*) sse42+=("${obj}") ;;
      *) baseline+=("${obj}") ;;
    esac
  done < <(find "${build_dir}" -name '*.o' -path '*CMakeFiles*' \
             ! -path '*_deps*' ! -path '*CompilerId*' ! -path '*CMakeScratch*' \
             -print0 | sort -z)

  if [[ "${#baseline[@]}" -eq 0 ]]; then
    echo "binary lint: no objects under ${build_dir} — build first" >&2
    exit 2
  fi

  # check_clean <pattern> <what> <objects...>: counts objects that match.
  local bad=0 hits
  check_clean() {
    local pattern="$1" what="$2"
    shift 2
    for obj in "$@"; do
      hits="$("${objdump}" -d "${obj}" 2>/dev/null | grep -En "${pattern}" || true)"
      if [[ -n "${hits}" ]]; then
        bad=$((bad + 1))
        echo "binary lint: ${what} leaked into ${obj#"${build_dir}"/}:" >&2
        head -n 5 <<<"${hits}" | sed 's/^/  /' >&2
      fi
    done
  }
  check_clean "${avx2_pattern}|${avx512_pattern}|${sse42_pattern}" \
    "AVX2/FMA/AVX-512/SSE4.2 crc32" "${baseline[@]}"
  check_clean "${avx2_pattern}|${avx512_pattern}" "AVX2/FMA/AVX-512" \
    ${sse42[@]+"${sse42[@]}"}
  check_clean "${avx512_pattern}" "AVX-512" ${avx2[@]+"${avx2[@]}"}
  if [[ "${bad}" -gt 0 ]]; then
    echo "binary lint: FAIL — ${bad} objects contain code beyond their ISA;" \
         "only the *_avx2 TUs may use AVX2/FMA, only the *_avx512 TUs" \
         "AVX-512 and only the *_sse42 TUs crc32 (see CMakeLists.txt)" >&2
    exit 1
  fi

  # Control groups: the ISA TUs themselves must trip their pattern (when
  # they were compiled at all) — otherwise the pattern or the disassembler
  # is broken and the clean sweep above proves nothing.
  # No `grep -q` here: under pipefail its early exit would SIGPIPE objdump
  # and report the pipeline as failed even on a match.
  check_control() {
    local pattern="$1" what="$2"
    shift 2
    for obj in "$@"; do
      if ! "${objdump}" -d "${obj}" 2>/dev/null | grep -E "${pattern}" >/dev/null; then
        echo "binary lint: control object ${obj#"${build_dir}"/} shows no" \
             "${what} — the lint pattern is vacuous" >&2
        exit 2
      fi
    done
  }
  # Each control runs only when CMakeCache.txt records its TUs as built
  # with their ISA; otherwise they are stubs and the control is skipped.
  local notes=""
  control_if_compiled() {
    local cache_var="$1" pattern="$2" what="$3" class="$4"
    shift 4
    if grep -qx "${cache_var}:INTERNAL=ON" "${build_dir}/CMakeCache.txt" \
         2>/dev/null; then
      check_control "${pattern}" "${what}" "$@"
      notes+=", $# ${class} control objects show ${what}"
    else
      notes+=", $# ${class} objects built as stubs (no ${cache_var}=ON in"
      notes+=" CMakeCache.txt), their control skipped"
    fi
  }
  control_if_compiled PP_SIMD_KERNELS_COMPILED "${avx2_pattern}" \
    "AVX2/FMA" AVX2 ${avx2[@]+"${avx2[@]}"}
  control_if_compiled PP_AVX512_KERNELS_COMPILED "${avx512_control}" \
    "zmm/vpdpbusd" AVX-512 ${avx512[@]+"${avx512[@]}"}
  control_if_compiled PP_SSE42_KERNELS_COMPILED "${sse42_pattern}" \
    "crc32" SSE4.2 ${sse42[@]+"${sse42[@]}"}

  echo "binary lint: OK — ${#baseline[@]} baseline objects clean${notes}" \
       "(${objdump})"
}

source_lint() {
  # Raw standard sync/thread vocabulary, plus the headers that provide it.
  # std::atomic stays allowed — the lock-free paths (ModelRegistry RCU
  # reads) are deliberate and documented where they occur.
  local pattern='std::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|scoped_lock|shared_lock|thread|jthread)\b|#[[:space:]]*include[[:space:]]*<(mutex|shared_mutex|condition_variable|thread)>'

  local checked=0 bad=0 hits
  while IFS= read -r -d '' f; do
    checked=$((checked + 1))
    # Strip // comments so prose mentioning std::mutex doesn't trip the
    # lint; line numbers survive (sed edits lines in place).
    hits="$(sed 's@//.*@@' "${f}" | grep -En "${pattern}" || true)"
    if [[ -n "${hits}" ]]; then
      bad=$((bad + 1))
      echo "source lint: raw sync primitive in ${f#"${REPO_ROOT}"/} — use the" \
           "annotated pp:: wrappers from src/util/ (mutex.hpp, thread.hpp):" >&2
      sed 's/^/  /' <<<"${hits}" >&2
    fi
  done < <(find "${REPO_ROOT}/src" -type f \( -name '*.cpp' -o -name '*.hpp' \) \
             ! -path "${REPO_ROOT}/src/util/*" -print0 | sort -z)

  if [[ "${checked}" -eq 0 ]]; then
    echo "source lint: found no sources under src/ — wrong checkout?" >&2
    exit 2
  fi
  if [[ "${bad}" -gt 0 ]]; then
    echo "source lint: FAIL — ${bad}/${checked} files use raw primitives" \
         "outside src/util/" >&2
    exit 1
  fi
  echo "source lint: OK — ${checked} files outside src/util/ free of raw" \
       "sync primitives"
}

case "${1:-}" in
  --binary)
    shift
    binary_lint "${1:-${REPO_ROOT}/build}"
    ;;
  --source)
    source_lint
    ;;
  -h|--help)
    usage
    ;;
  *)
    usage >&2
    exit 2
    ;;
esac
