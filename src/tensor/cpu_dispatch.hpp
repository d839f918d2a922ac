// Runtime CPU-feature dispatch for the GEMM micro-kernels (tensor/gemm,
// tensor/qgemm). The SIMD kernels live in dedicated TUs compiled with
// per-file -mavx2 -mfma (see CMakeLists.txt); everything else in the tree
// is baseline x86-64, so the binaries stay portable and the fast kernels
// are selected per process at first use:
//
//   resolved kernel = PP_GEMM_FORCE_KERNEL env override, if set and valid
//                   | GemmKernel::kSimd  when the host has AVX2+FMA and
//                   |                    the SIMD TUs were compiled in
//                   | GemmKernel::kBlocked otherwise
//
// kSimd has a second, wider lane: on hosts that also pass the AVX-512
// VNNI probe (avx512_vnni_available), the int8 serving products run the
// qgemm_avx512.cpp kernel instead of the AVX2 one. Everything else keeps
// its AVX2 kernel there, and every lane returns the same bits.
//
// Forcing kSimd (via env or set_gemm_kernel) on a host without AVX2+FMA
// falls back to kBlocked at dispatch time — the AVX2 code is never
// executed on a CPU that cannot run it. Benches and tests read the
// resolved kernel through gemm_dispatched_kernel() so recorded numbers
// carry the ISA + kernel that actually produced them.
#pragma once

#include "tensor/gemm.hpp"

namespace pp::tensor {

/// ISA tiers the dispatcher distinguishes. kGeneric is baseline x86-64
/// (or any non-x86 build); kAvx2Fma means both AVX2 and FMA3 probed true.
enum class CpuIsa { kGeneric, kAvx2Fma };

/// Cached cpuid probe of the host (independent of what was compiled).
CpuIsa detected_cpu_isa();

/// Stable identifier for bench JSON / logs: "generic" | "avx2_fma".
const char* cpu_isa_name(CpuIsa isa);

/// Stable identifier: "naive" | "blocked" | "simd" | "auto".
const char* gemm_kernel_name(GemmKernel kernel);

/// True when the AVX2/FMA kernel TUs were compiled into this binary
/// (CMake PP_SIMD_KERNELS and a compiler that accepts -mavx2 -mfma).
bool simd_kernels_compiled();

/// True when kSimd would actually run the AVX2 kernels here: compiled in
/// AND the host CPU reports AVX2+FMA.
bool gemm_simd_available();

/// True when kSimd runs its AVX-512 lane here: gemm_simd_available(), the
/// qgemm_avx512.cpp TU compiled with its ISA, AND a host that reports
/// AVX-512 F, BW and VNNI (with the OS saving zmm state). A separate
/// probe rather than a CpuIsa tier, so detected_cpu_isa() and everything
/// keyed on kAvx2Fma stay as they are on AVX-512 hosts.
bool avx512_vnni_available();

/// Parses PP_GEMM_FORCE_KERNEL ("naive" | "blocked" | "simd"). Returns
/// true and writes *out when the variable is set to a valid value; an
/// unknown value is ignored (returns false) so a typo cannot silently
/// select an unintended kernel. Reads the environment on every call —
/// the process-default caching happens in the gemm dispatcher.
bool gemm_kernel_from_env(GemmKernel* out);

}  // namespace pp::tensor
