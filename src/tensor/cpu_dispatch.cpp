#include "tensor/cpu_dispatch.hpp"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace pp::tensor {

namespace {

CpuIsa probe_cpu_isa() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return CpuIsa::kAvx2Fma;
  }
#endif
  return CpuIsa::kGeneric;
}

/// Host support for the AVX-512 lane, false when its TU was built
/// without the ISA.
bool probe_avx512_vnni() {
#if defined(PP_AVX512_KERNELS_COMPILED) && \
    (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vnni");
#else
  return false;
#endif
}

}  // namespace

CpuIsa detected_cpu_isa() {
  static const CpuIsa isa = probe_cpu_isa();
  return isa;
}

const char* cpu_isa_name(CpuIsa isa) {
  switch (isa) {
    case CpuIsa::kAvx2Fma:
      return "avx2_fma";
    case CpuIsa::kGeneric:
      break;
  }
  return "generic";
}

const char* gemm_kernel_name(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kNaive:
      return "naive";
    case GemmKernel::kSimd:
      return "simd";
    case GemmKernel::kAuto:
      break;
  }
  return "auto";
}

bool simd_kernels_compiled() {
#if defined(PP_SIMD_KERNELS_COMPILED)
  return true;
#else
  return false;
#endif
}

bool gemm_simd_available() {
  return simd_kernels_compiled() && detected_cpu_isa() == CpuIsa::kAvx2Fma;
}

bool avx512_vnni_available() {
  static const bool available = gemm_simd_available() && probe_avx512_vnni();
  return available;
}

bool gemm_kernel_from_env(GemmKernel* out) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env probe; nothing in
  // this process calls setenv/putenv, so the getenv data race cannot occur.
  const char* value = std::getenv("PP_GEMM_FORCE_KERNEL");
  if (value == nullptr || *value == '\0') return false;
  if (std::strcmp(value, "naive") == 0) {
    *out = GemmKernel::kNaive;
    return true;
  }
  if (std::strcmp(value, "simd") == 0) {
    *out = GemmKernel::kSimd;
    return true;
  }
  std::string message = "PP_GEMM_FORCE_KERNEL=";
  message += value;
  message += ": expected naive or simd";
  throw std::invalid_argument(message);
}

}  // namespace pp::tensor
