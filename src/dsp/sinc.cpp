#include "dsp/sinc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/angles.h"
#include "common/error.h"

namespace mmr::dsp {

void sinc_pulse(double ts, double bandwidth, double tau,
                std::span<double> out) {
  MMR_EXPECTS(ts > 0.0 && bandwidth > 0.0);
  MMR_EXPECTS(std::abs(bandwidth * ts - 1.0) <=
              4.0 * std::numeric_limits<double>::epsilon());
  if (out.empty()) return;
  // The anchor: the tap nearest the centre B tau, clamped to the window.
  // A NaN delay takes tap 0 and, as in the per-tap form, makes every tap
  // NaN.
  const double centre = std::round(bandwidth * tau);
  const double last = static_cast<double>(out.size() - 1);
  const std::size_t m =
      centre > 0.0 ? static_cast<std::size_t>(std::min(centre, last)) : 0;
  const double sin_m =
      std::sin(kPi * (bandwidth * (static_cast<double>(m) * ts - tau)));
  for (std::size_t n = 0; n < out.size(); ++n) {
    const double x = bandwidth * (static_cast<double>(n) * ts - tau);
    if (std::abs(x) < 1e-12) {
      out[n] = 1.0;
      continue;
    }
    // sin(pi x_n) = (-1)^(n-m) sin(pi x_m); n - m and n ^ m share parity.
    out[n] = (((n ^ m) & 1) != 0 ? -sin_m : sin_m) / (kPi * x);
  }
}

cplx sinc_interpolate(const CVec& taps, double ts, double bandwidth,
                      double tau, std::span<double> pulse) {
  MMR_EXPECTS(pulse.size() == taps.size());
  sinc_pulse(ts, bandwidth, tau, pulse);
  cplx acc{};
  for (std::size_t n = 0; n < taps.size(); ++n) acc += taps[n] * pulse[n];
  return acc;
}

}  // namespace mmr::dsp
