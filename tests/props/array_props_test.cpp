// Property-based array invariants over >= 1000 Rng::fork cases each:
//   * steering vectors are unit-modulus per element -- phase-only
//     structures,
//   * single-beam and synthesized multi-beam weights conserve total
//     radiated power (unit norm, paper Eq. 10), including through
//     hardware quantization.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "array/geometry.h"
#include "array/weights.h"
#include "common/angles.h"
#include "common/rng.h"
#include "core/multibeam.h"

namespace mmr {
namespace {

constexpr std::size_t kCases = 1500;
constexpr std::uint64_t kBaseSeed = 987654321;

array::Ula random_ula(Rng& rng) {
  array::Ula ula;
  ula.num_elements = 4 + static_cast<std::size_t>(rng.uniform_index(61));
  ula.spacing_wavelengths = rng.uniform(0.25, 1.0);
  return ula;
}

TEST(ArrayProps, SteeringVectorIsUnitModulusPerElement) {
  const Rng base(kBaseSeed);
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const array::Ula ula = random_ula(rng);
    const double phi = rng.uniform(-kPi / 2.0, kPi / 2.0);
    const CVec a = array::steering_vector(ula, phi);
    ASSERT_EQ(a.size(), ula.num_elements) << "case " << i;
    for (std::size_t n = 0; n < a.size(); ++n) {
      ASSERT_NEAR(std::abs(a[n]), 1.0, 1e-12)
          << "case " << i << " element " << n;
    }
  }
}

TEST(ArrayProps, SingleBeamWeightsConserveTrp) {
  const Rng base(kBaseSeed + 2);
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const array::Ula ula = random_ula(rng);
    const double phi = rng.uniform(-kPi / 2.0, kPi / 2.0);
    const CVec w = array::single_beam_weights(ula, phi);
    ASSERT_NEAR(array::total_radiated_power(w), 1.0, 1e-12) << "case " << i;
  }
}

TEST(ArrayProps, MultibeamSynthesisConservesTrp) {
  const Rng base(kBaseSeed + 3);
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const array::Ula ula = random_ula(rng);
    const std::size_t num_beams =
        1 + static_cast<std::size_t>(rng.uniform_index(4));
    std::vector<core::BeamComponent> components;
    for (std::size_t k = 0; k < num_beams; ++k) {
      core::BeamComponent c;
      c.angle_rad = rng.uniform(-kPi / 2.0, kPi / 2.0);
      // Coefficient amplitudes in (0, 1]: the reference beam is 1 and
      // weaker paths get smaller deltas, but any nonzero value must
      // still come out unit-norm.
      c.coefficient = std::polar(rng.uniform(0.05, 1.0),
                                 rng.uniform(-kPi, kPi));
      components.push_back(c);
    }
    const core::MultiBeam mb = core::synthesize_multibeam(ula, components);
    ASSERT_EQ(mb.weights.size(), ula.num_elements) << "case " << i;
    ASSERT_NEAR(array::total_radiated_power(mb.weights), 1.0, 1e-12)
        << "case " << i << " beams=" << num_beams;
    ASSERT_GT(mb.gain_norm, 0.0) << "case " << i;
  }
}

TEST(ArrayProps, QuantizationPreservesTrp) {
  const Rng base(kBaseSeed + 4);
  for (std::size_t i = 0; i < kCases; ++i) {
    Rng rng = base.fork(i);
    const array::Ula ula = random_ula(rng);
    CVec w(ula.num_elements);
    for (cplx& x : w) x = cplx{rng.normal(), rng.normal()};
    w = array::normalize_trp(w);
    ASSERT_NEAR(array::total_radiated_power(w), 1.0, 1e-12) << "case " << i;

    const array::QuantizationSpec spec =
        (i % 2 == 0) ? array::QuantizationSpec::paper_testbed()
                     : array::QuantizationSpec::commodity_11ad();
    const CVec q = array::quantize(w, spec);
    ASSERT_NEAR(array::total_radiated_power(q), 1.0, 1e-12) << "case " << i;
  }
}

}  // namespace
}  // namespace mmr
