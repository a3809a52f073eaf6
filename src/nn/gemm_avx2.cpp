// AVX2 tier of nn::matmul: a register-blocked 6x16 GEMM micro-kernel.
//
// This translation unit is compiled with -mavx2 (not -mfma) under the
// DEFA_KERNELS_SIMD CMake knob, like kernels/simd_avx2.cpp; nn::matmul
// probes the CPU before calling in.  Without the knob, or off x86, the
// file compiles to stubs and `gemm_avx2_compiled()` reports false.
//
// Bit-exactness against the portable loop in linear.cpp, for every input:
//  * each C element is one accumulator lane that starts at +0 and takes
//    its products in increasing k, as a separate vmulps then vaddps (never
//    FMA), so each product the portable loop takes is added exactly as
//    its `c += a * b`;
//  * the portable loop skips a product when a == 0 (either sign); this
//    kernel adds it.  With b finite that product is +-0, and adding a zero
//    of either sign changes no accumulator: a sum of two floats is -0
//    under round-to-nearest only when both are -0, so an accumulator that
//    starts at +0 is never -0, and x + (+-0) == x for every other x, NaN
//    included.  With b Inf or NaN, 0 * b would be NaN, so gemm_avx2_pack
//    refuses such a B and the whole product runs on the portable loop.
// Rows are independent, so any row partition gives the same bits.

#include "nn/gemm_avx2.h"

#include <cmath>

#include "common/check.h"

#if defined(DEFA_SIMD_AVX2) && defined(__AVX2__)
#define DEFA_GEMM_AVX2_REAL 1
#include <immintrin.h>
#else
#define DEFA_GEMM_AVX2_REAL 0
#endif

namespace defa::nn::detail {

bool gemm_avx2_compiled() noexcept { return DEFA_GEMM_AVX2_REAL != 0; }

std::vector<float> gemm_avx2_pack(const float* b, std::int64_t k, std::int64_t n) {
  const std::int64_t panels = n / kGemmPanel;
  std::vector<float> packed(static_cast<std::size_t>(panels * k * kGemmPanel));
  float* dst = packed.data();
  for (std::int64_t p = 0; p < panels; ++p) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* src = b + kk * n + p * kGemmPanel;
      for (std::int64_t j = 0; j < kGemmPanel; ++j) *dst++ = src[j];
    }
  }
  for (const float v : packed) {
    if (!std::isfinite(v)) return {};
  }
  return packed;
}

#if DEFA_GEMM_AVX2_REAL

namespace {

constexpr int kTileRows = 6;

/// C[0:MR, 0:16) of one tile: rows of A at stride `lda`, one packed B
/// panel (k x 16), C rows at stride `ldc`.
template <int MR>
void tile(const float* a, std::int64_t lda, const float* bp, float* c, std::int64_t ldc,
          std::int64_t k) {
  __m256 acc[MR][2];
  for (int r = 0; r < MR; ++r) acc[r][0] = acc[r][1] = _mm256_setzero_ps();
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kGemmPanel);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kGemmPanel + 8);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_broadcast_ss(a + r * lda + kk);
      acc[r][0] = _mm256_add_ps(acc[r][0], _mm256_mul_ps(av, b0));
      acc[r][1] = _mm256_add_ps(acc[r][1], _mm256_mul_ps(av, b1));
    }
  }
  for (int r = 0; r < MR; ++r) {
    _mm256_storeu_ps(c + r * ldc, acc[r][0]);
    _mm256_storeu_ps(c + r * ldc + 8, acc[r][1]);
  }
}

/// Every full column panel of MR rows.
template <int MR>
void row_panel(const float* a, const float* packed, float* c, std::int64_t k,
               std::int64_t n) {
  for (std::int64_t p = 0; p < n / kGemmPanel; ++p) {
    tile<MR>(a, k, packed + p * k * kGemmPanel, c + p * kGemmPanel, n, k);
  }
}

}  // namespace

void gemm_avx2_rows(const float* a, const float* packed, float* c, std::int64_t k,
                    std::int64_t n, std::int64_t row_begin, std::int64_t row_end) {
  std::int64_t i = row_begin;
  for (; i + kTileRows <= row_end; i += kTileRows) {
    row_panel<kTileRows>(a + i * k, packed, c + i * n, k, n);
  }
  const float* ai = a + i * k;
  float* ci = c + i * n;
  switch (row_end - i) {
    case 5: row_panel<5>(ai, packed, ci, k, n); break;
    case 4: row_panel<4>(ai, packed, ci, k, n); break;
    case 3: row_panel<3>(ai, packed, ci, k, n); break;
    case 2: row_panel<2>(ai, packed, ci, k, n); break;
    case 1: row_panel<1>(ai, packed, ci, k, n); break;
    default: break;
  }
}

#else  // !DEFA_GEMM_AVX2_REAL

void gemm_avx2_rows(const float*, const float*, float*, std::int64_t, std::int64_t,
                    std::int64_t, std::int64_t) {
  DEFA_CHECK(false, "AVX2 GEMM tier not compiled in (DEFA_KERNELS_SIMD=OFF or non-x86)");
}

#endif

}  // namespace defa::nn::detail
