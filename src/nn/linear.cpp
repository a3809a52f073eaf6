#include "nn/linear.h"

#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "nn/gemm_avx2.h"

namespace defa::nn {

namespace {

/// The portable tier on columns [col_begin, n) of rows [row_begin, row_end).
void matmul_rows_portable(const float* pa, const float* pb, float* pc, std::int64_t k,
                          std::int64_t n, std::int64_t row_begin, std::int64_t row_end,
                          std::int64_t col_begin) {
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    float* crow = pc + i * n;
    const float* arow = pa + i * k;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;  // pruned rows/columns short-circuit
      const float* brow = pb + kk * n;
      for (std::int64_t j = col_begin; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace

GemmTier best_gemm_tier() noexcept {
  return detail::gemm_avx2_compiled() && simd::cpu_supports(simd::Isa::kAvx2)
             ? GemmTier::kAvx2
             : GemmTier::kPortable;
}

Tensor matmul(const Tensor& a, const Tensor& b) { return matmul(a, b, best_gemm_tier()); }

Tensor matmul(const Tensor& a, const Tensor& b, GemmTier tier) {
  DEFA_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects rank-2 tensors");
  DEFA_CHECK(a.dim(1) == b.dim(0), "matmul inner dimension mismatch");
  DEFA_CHECK(tier == GemmTier::kPortable || best_gemm_tier() == GemmTier::kAvx2,
             "matmul: the AVX2 tier is not available in this build or on this CPU");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor c({m, n});

  const float* pa = a.data().data();
  const float* pb = b.data().data();
  float* pc = c.data().data();

  // The AVX2 tier takes the full 16-column panels of a finite B (an empty
  // pack otherwise), the portable loop the rest.
  std::vector<float> packed;
  if (tier == GemmTier::kAvx2) packed = detail::gemm_avx2_pack(pb, k, n);
  const std::int64_t n_vec =
      packed.empty() ? 0 : n / detail::kGemmPanel * detail::kGemmPanel;

  parallel_for(0, m, [&](std::int64_t row_begin, std::int64_t row_end) {
    if (n_vec > 0) detail::gemm_avx2_rows(pa, packed.data(), pc, k, n, row_begin, row_end);
    if (n_vec < n) matmul_rows_portable(pa, pb, pc, k, n, row_begin, row_end, n_vec);
  }, /*min_parallel=*/8);
  return c;
}

Tensor linear(const Tensor& x, const Tensor& w, const Tensor* bias) {
  Tensor y = matmul(x, w);
  if (bias != nullptr) {
    DEFA_CHECK(bias->rank() == 1 && bias->dim(0) == y.dim(1), "bias shape mismatch");
    const std::int64_t m = y.dim(0), n = y.dim(1);
    std::span<float> py = y.data();
    std::span<const float> pbias = bias->data();
    for (std::int64_t i = 0; i < m; ++i) {
      float* row = &py[static_cast<std::size_t>(i * n)];
      for (std::int64_t j = 0; j < n; ++j) row[j] += pbias[static_cast<std::size_t>(j)];
    }
  }
  return y;
}

}  // namespace defa::nn
