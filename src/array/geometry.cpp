#include "array/geometry.h"

#include <cmath>

#include "common/angles.h"
#include "common/error.h"
#include "dsp/kernels.h"

namespace mmr::array {

CVec steering_vector(const Ula& ula, double phi_rad) {
  MMR_EXPECTS(ula.num_elements >= 1);
  MMR_EXPECTS(ula.spacing_wavelengths > 0.0);
  CVec a(ula.num_elements);
  dsp::phasor_ramp(steering_phase_step(ula, phi_rad), ula.num_elements,
                   a.data());
  return a;
}

CVec single_beam_weights(const Ula& ula, double phi_rad) {
  CVec w = steering_vector(ula, phi_rad);
  const double inv_sqrt_n = 1.0 / std::sqrt(static_cast<double>(w.size()));
  for (auto& c : w) c = std::conj(c) * inv_sqrt_n;
  return w;
}

}  // namespace mmr::array
