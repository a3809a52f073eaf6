#pragma once

/// \file linear.h
/// Dense linear algebra for the functional MSDeformAttn model.

#include "tensor/tensor.h"

namespace defa::nn {

/// Implementation tiers of matmul.  Every tier gives the same bits for
/// every input (docs/KERNELS.md, "Dense GEMM").
enum class GemmTier {
  kPortable,  ///< the i-k-j loop; available everywhere
  kAvx2,      ///< register-blocked 6x16 AVX2 micro-kernel (src/nn/gemm_avx2.cpp)
};

/// The tier matmul(a, b) runs: kAvx2 when the build compiled it (the
/// DEFA_KERNELS_SIMD CMake option) and the CPU supports AVX2, else
/// kPortable.
[[nodiscard]] GemmTier best_gemm_tier() noexcept;

/// C = A (MxK) * B (KxN) on best_gemm_tier().  Parallelized over rows of
/// A; deterministic.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// matmul on the given tier.  Throws defa::CheckError when that tier
/// cannot run in this build or on this CPU.  The AVX2 tier leaves the
/// columns past the last full 16-column panel, and a B holding Inf or
/// NaN, to the portable loop.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b, GemmTier tier);

/// Y = X * W (+ bias broadcast over rows).  W is (K x N); bias is (N).
[[nodiscard]] Tensor linear(const Tensor& x, const Tensor& w, const Tensor* bias = nullptr);

}  // namespace defa::nn
