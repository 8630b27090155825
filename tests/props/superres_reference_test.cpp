// The fixed-K super-resolution fit (src/core/superres.cpp) against the
// runtime-K fit it replaced (tests/core/superres_reference.cpp), bit for
// bit: over 10,240 random fits -- K = 1..kMaxBeams, 4-64 taps, CIRs with
// NaN/Inf taps, the allocation audit's wide search grid, refinement_rounds
// 2-3, no fine shift, a single relative step -- every alpha, every
// refined delay and the residual must memcmp-equal the reference's, from
// the by-value form and from one workspace reused across all the fits.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "common/angles.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/superres.h"
#include "dsp/sinc.h"
#include "tests/core/superres_reference.h"

namespace mmr {
namespace {

constexpr double kBw = 400e6;
constexpr double kTs = 1.0 / kBw;
constexpr std::size_t kFits = 10'240;

struct Case {
  CVec cir;
  RVec delays;
  core::SuperresConfig config;
};

// Beams spaced 0.3-4 ns apart (many below the 2.5 ns Fourier limit), a
// common timing shift and a per-path drift, so both search stages move.
Case random_case(Rng& rng) {
  Case c;
  const std::size_t k = 1 + rng.uniform_index(core::kMaxBeams);
  const std::size_t taps = std::max<std::size_t>(
      k, 4 + rng.uniform_index(61));
  c.delays.resize(k);
  double delay = rng.uniform(0.0, 3.0e-9);
  for (double& d : c.delays) {
    d = delay;
    delay += rng.uniform(0.3e-9, 4.0e-9);
  }
  const double shift = rng.uniform(-1.0e-9, 1.0e-9);
  c.cir.assign(taps, cplx{});
  RVec pulse(taps);
  for (const double nominal : c.delays) {
    const cplx amp = std::polar(rng.uniform(0.05, 1.0), rng.uniform(-kPi, kPi));
    dsp::sinc_pulse(kTs, kBw, nominal + shift + rng.uniform(-0.15e-9, 0.15e-9),
                    pulse);
    for (std::size_t n = 0; n < taps; ++n) c.cir[n] += amp * pulse[n];
  }
  const double noise = rng.uniform() < 0.5 ? 1e-6 : 1e-2;
  for (cplx& tap : c.cir) tap += rng.complex_normal(noise);
  if (rng.uniform() < 0.15) {
    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
    const std::size_t count = 1 + rng.uniform_index(3);
    for (std::size_t i = 0; i < count; ++i) {
      const double value = bad[rng.uniform_index(3)];
      cplx& tap = c.cir[rng.uniform_index(taps)];
      tap = rng.uniform() < 0.5 ? cplx{value, tap.imag()}
                                : cplx{tap.real(), value};
    }
  }
  switch (rng.uniform_index(6)) {
    case 0:  // the allocation audit's wide grid
      c.config.common_shift_steps = 33;
      c.config.common_shift_fine_steps = 9;
      c.config.relative_steps = 7;
      c.config.refinement_rounds = 3;
      break;
    case 1:
      c.config.refinement_rounds = 2;
      break;
    case 2:
      c.config.refinement_rounds = 3;
      c.config.lambda = 1e-2;
      break;
    case 3:
      c.config.common_shift_fine_steps = 1;
      c.config.relative_steps = 5;
      break;
    case 4:
      c.config.common_shift_steps = 1;
      c.config.relative_steps = 1;
      break;
    default:
      break;  // mmReliable's monitoring configuration
  }
  return c;
}

bool same_bits(const core::SuperresResult& got,
               const core::SuperresResult& want) {
  return got.alphas.size() == want.alphas.size() &&
         got.delays_s.size() == want.delays_s.size() &&
         std::memcmp(got.alphas.data(), want.alphas.data(),
                     want.alphas.size() * sizeof(cplx)) == 0 &&
         std::memcmp(got.delays_s.data(), want.delays_s.data(),
                     want.delays_s.size() * sizeof(double)) == 0 &&
         std::memcmp(&got.residual, &want.residual, sizeof(double)) == 0;
}

TEST(SuperresReference, FixedKFitIsTheRuntimeKFitBitForBit) {
  const Rng base(0x5EBE5A11ull);
  core::SuperresWorkspace workspace;
  std::size_t per_k[core::kMaxBeams + 1] = {};
  std::size_t corrupted = 0;
  for (std::size_t i = 0; i < kFits; ++i) {
    Rng rng = base.fork(i);
    const Case c = random_case(rng);
    const core::SuperresResult want = testing::reference_superres_per_beam(
        c.cir, c.delays, kTs, kBw, c.config);
    const core::SuperresResult got =
        core::superres_per_beam(c.cir, c.delays, kTs, kBw, c.config);
    ASSERT_TRUE(same_bits(got, want))
        << "fit " << i << ": K = " << c.delays.size() << ", "
        << c.cir.size() << " taps";
    ASSERT_TRUE(same_bits(core::superres_per_beam(c.cir, c.delays, kTs, kBw,
                                                  c.config, workspace),
                          want))
        << "fit " << i << " on the reused workspace";
    ++per_k[c.delays.size()];
    for (const cplx& tap : c.cir) {
      if (!std::isfinite(tap.real()) || !std::isfinite(tap.imag())) {
        ++corrupted;
        break;
      }
    }
  }
  for (std::size_t k = 1; k <= core::kMaxBeams; ++k) {
    EXPECT_GE(per_k[k], kFits / core::kMaxBeams / 2) << "K = " << k;
  }
  EXPECT_GE(corrupted, kFits / 10);
}

}  // namespace
}  // namespace mmr
