#pragma once

/// \file gemm_avx2.h
/// Internal interface between nn::matmul (linear.cpp) and its AVX2 tier
/// (gemm_avx2.cpp).  Not part of the public nn API.
///
/// gemm_avx2.cpp is the only nn/ translation unit compiled with -mavx2
/// (the DEFA_KERNELS_SIMD CMake knob, as for kernels/simd_avx2.cpp); when
/// the knob is off or the target is not x86 it compiles to stubs and
/// `gemm_avx2_compiled()` reports false.  The tier covers the columns of
/// the full 16-wide panels of a finite B; linear.cpp runs the rest on the
/// portable loop.

#include <cstdint>
#include <vector>

namespace defa::nn::detail {

/// Width of one B column panel of the AVX2 tier.
inline constexpr std::int64_t kGemmPanel = 16;

/// Did this build compile the real AVX2 tier (not stubs)?
[[nodiscard]] bool gemm_avx2_compiled() noexcept;

/// Repack the full column panels of row-major B (k x n) panel-major:
/// panel p holds rows 0..k-1 of columns [16p, 16p + 16), 16 floats a row.
/// Empty when there is nothing to pack or a packed element is Inf or NaN:
/// the tier adds the products of zero `a` that the portable loop skips,
/// which is exact only against finite B (gemm_avx2.cpp).
[[nodiscard]] std::vector<float> gemm_avx2_pack(const float* b, std::int64_t k,
                                                std::int64_t n);

/// C[i, 0:16*(n/16)) for rows i in [row_begin, row_end), from row-major A
/// (m x k) and a non-empty gemm_avx2_pack of B.  Overwrites those C
/// elements with exactly the portable loop's result.
void gemm_avx2_rows(const float* a, const float* packed, float* c, std::int64_t k,
                    std::int64_t n, std::int64_t row_begin, std::int64_t row_end);

}  // namespace defa::nn::detail
