// The fused delay-phasor kernels as they stood before the generation /
// consumption split: dst[k] += alpha * exp(j * ((-2 pi) * freqs[k]) *
// delay_s). tests/dsp/phasor_split_test.cpp compares the split kernels
// against them byte for byte.
#pragma once

#include <cstddef>

#include "common/types.h"

namespace mmr {

/// The scalar backend's loop (phasor_split_test.cpp).
void fused_scalar(cplx alpha, const double* freqs, double delay_s, cplx* dst,
                  std::size_t n);

#if defined(__x86_64__) || defined(_M_X64)
/// The AVX2 backend's kernel (fused_avx2_reference.cpp, compiled with
/// floating-point contraction on, as src/dsp/backend_avx2.cpp is).
void fused_avx2(cplx alpha, const double* freqs, double delay_s, cplx* dst,
                std::size_t n);
#endif

}  // namespace mmr
