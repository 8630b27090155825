#include "calib.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>

#include "clock.h"

namespace perfbench {
namespace {

volatile double g_sink = 0.0;

/// A fixed mix of what link simulation spends its time on: sin/cos
/// phasors, complex multiply-accumulate over short vectors, and a small
/// data-dependent sort.
double reference_chunk() {
  constexpr std::size_t kN = 256;
  constexpr int kRounds = 118;
  std::array<std::complex<double>, kN> a{};
  std::array<std::complex<double>, kN> b{};
  std::array<double, 64> keys{};
  double acc = 0.0;
  for (int r = 0; r < kRounds; ++r) {
    const double slope = 1e-3 * (r + 1);
    for (std::size_t i = 0; i < kN; ++i) {
      a[i] = std::polar(1.0, slope * static_cast<double>(i));
    }
    std::complex<double> dot{};
    for (std::size_t i = 0; i < kN; ++i) {
      b[i] = a[i] * std::conj(a[(i * 7) & (kN - 1)]) + 0.5 * b[i];
      dot += b[i];
    }
    for (std::size_t k = 0; k < keys.size(); ++k) {
      keys[k] = std::abs(b[(k * 37 + static_cast<std::size_t>(r)) & (kN - 1)]);
    }
    std::sort(keys.begin(), keys.end());
    acc += std::abs(dot) + keys[keys.size() / 2];
  }
  return acc;
}

}  // namespace

double Calibrator::sample() {
  const double t0 = thread_cpu_s();
  g_sink = g_sink + reference_chunk();
  const double dt = thread_cpu_s() - t0;
  ++window_n_;
  window_s_ += dt;
  return dt;
}

double Calibrator::factor() {
  const double f = window_n_ > 0 && window_s_ > 0.0
                       ? kNominalChunkS * static_cast<double>(window_n_) / window_s_
                       : 1.0;
  window_n_ = 0;
  window_s_ = 0.0;
  return f;
}

}  // namespace perfbench
