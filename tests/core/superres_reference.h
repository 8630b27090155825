// The super-resolution fit as it was before the fixed-K rewrite of
// src/core/superres.cpp: a runtime-K DelayFitter whose Fit objects hold
// every buffer, a full copy of the best fit per stage-2 candidate, and
// the dsp::ridge_factor / dsp::cholesky_solve calls. Kept verbatim as the
// reference that tests/props/superres_reference_test.cpp compares the
// production fit with, bit for bit.
#pragma once

#include "common/types.h"
#include "core/superres.h"

namespace mmr::testing {

/// superres_per_beam as the runtime-K fitter computes it, for any K >= 1.
core::SuperresResult reference_superres_per_beam(
    const CVec& cir, const RVec& nominal_delays_s, double ts,
    double bandwidth_hz, const core::SuperresConfig& config = {});

}  // namespace mmr::testing
