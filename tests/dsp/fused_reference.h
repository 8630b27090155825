// The fused kernels as they stood before the generation / consumption
// split, kept as the references tests/dsp/phasor_split_test.cpp compares
// the split kernels against byte for byte:
//  * the delay-phasor accumulate dst[k] += alpha * exp(j * ((-2 pi) *
//    freqs[k]) * delay_s);
//  * the steering accumulate y[i] += alpha * exp(-j step i).
#pragma once

#include <cstddef>

#include "common/types.h"

namespace mmr {

/// exp(j ang) as re + j im: how a backend evaluates one phasor.
using PhasorFn = void (*)(double ang, double* re, double* im);

/// The scalar backend's loops (phasor_split_test.cpp). fused_ramp_scalar
/// evaluates its phasors with libm; fused_ramp_scalar_with is the same
/// loop over the phasors `phasor` evaluates.
void fused_scalar(cplx alpha, const double* freqs, double delay_s, cplx* dst,
                  std::size_t n);
void fused_ramp_scalar(cplx alpha, double step, cplx* y, std::size_t n);
void fused_ramp_scalar_with(PhasorFn phasor, cplx alpha, double step, cplx* y,
                            std::size_t n);

#if defined(__x86_64__) || defined(_M_X64)
/// The AVX2 backend's kernels (fused_avx2_reference.cpp, compiled with
/// floating-point contraction on, as src/dsp/backend_avx2.cpp is), with
/// every phasor the backend generates evaluated as it evaluates it.
void fused_avx2(cplx alpha, const double* freqs, double delay_s, cplx* dst,
                std::size_t n);
void fused_ramp_avx2(cplx alpha, double step, cplx* y, std::size_t n);
#endif

}  // namespace mmr
