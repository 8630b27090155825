// Band-limited (sinc) pulse models. The super-resolution algorithm
// (paper Section 4.3, Eq. 22) fits attenuations of sinc pulses whose delays
// are known up to a small search window; sinc_pulse builds each sampled
// pulse of that dictionary, and of every synthesized CIR.
#pragma once

#include <span>

#include "common/types.h"

namespace mmr::dsp {

/// Sampled band-limited pulse (paper Eq. 22): out[n] = sinc(x_n) with
/// x_n = B (n ts - tau), for a pulse of delay tau [s] seen by a receiver
/// of bandwidth B [Hz] sampling at its Nyquist period ts [s], where
/// sinc(x) = sin(pi x) / (pi x) and sinc(x) = 1 for |x| < 1e-12.
///
/// One std::sin per pulse: with B ts = 1 neighbouring taps are one
/// sample apart, so sin(pi x_n) = (-1)^(n-m) sin(pi x_m). The anchor m is
/// the tap nearest the pulse centre B tau, clamped to the window, so
/// the sin is taken where the pulse is largest and keeps the peak's
/// relative accuracy; every tap divides by its own pi x_n. Declared
/// bound: for windows of up to 64 taps and delays within 3 samples of
/// the window, each tap is within 2e-14 absolute of the per-tap libm form
/// sin(pi x_n) / (pi x_n) (tests/dsp/sinc_test.cpp); the anchor tap is
/// that form's bits, and a delay of k ts with k in the window gives an
/// exact Kronecker delta.
///
/// Requires ts > 0, B > 0 and |B ts - 1| <= 4 eps (ts = 1 / B rounds to
/// within an ulp of that); throws std::logic_error otherwise.
void sinc_pulse(double ts, double bandwidth, double tau,
                std::span<double> out);

/// Band-limited interpolation of a sampled CIR at fractional delay tau:
/// sum_n taps[n] sinc(B(n ts - tau)), the pulse formed by sinc_pulse in
/// `pulse` (taps.size() scratch). Used to read a CIR "between taps".
cplx sinc_interpolate(const CVec& taps, double ts, double bandwidth,
                      double tau, std::span<double> pulse);

}  // namespace mmr::dsp
