#include "common/rng.h"

#include <algorithm>
#include <cmath>

#include "common/angles.h"
#include "common/error.h"

namespace mmr {
namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: expands one seed word into the four xoshiro state words.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  MMR_EXPECTS(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = next_u64();
  } while (x >= limit);
  return x % n;
}

void libm_log(const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = std::log(x[i]);
}

void libm_sincos(const double* x, double* s, double* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = std::sin(x[i]);
    c[i] = std::cos(x[i]);
  }
}

double Rng::normal() {
  double z;
  normals(&z, 1, kLibmNormalMath);
  return z;
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

cplx Rng::complex_normal(double variance) {
  const double s = std::sqrt(variance / 2.0);
  return {normal(0.0, s), normal(0.0, s)};
}

void Rng::normals(double* out, std::size_t n, const NormalMath& math) {
  std::size_t i = 0;
  if (n > 0 && has_cached_normal_) {
    has_cached_normal_ = false;
    out[i++] = cached_normal_;
  }
  // Box-Muller, one chunk of pairs at a time: draw every pair's (u1, u2)
  // in call order, run the transcendentals over the chunk, then emit
  // r cos, r sin per pair. An odd tail caches its last r sin for the
  // next draw. uniform() can return exactly 0; nudge to avoid log(0).
  constexpr std::size_t kPairs = 64;
  double u1[kPairs];
  double angle[kPairs];
  double log_u1[kPairs];
  double sin_a[kPairs];
  double cos_a[kPairs];
  while (i < n) {
    const std::size_t pairs = std::min(kPairs, (n - i + 1) / 2);
    for (std::size_t p = 0; p < pairs; ++p) {
      u1[p] = uniform();
      if (u1[p] <= 0.0) u1[p] = 0x1.0p-53;
      angle[p] = 2.0 * kPi * uniform();
    }
    math.log(u1, log_u1, pairs);
    math.sincos(angle, sin_a, cos_a, pairs);
    for (std::size_t p = 0; p < pairs; ++p) {
      const double r = std::sqrt(-2.0 * log_u1[p]);
      out[i++] = r * cos_a[p];
      if (i < n) {
        out[i++] = r * sin_a[p];
      } else {
        cached_normal_ = r * sin_a[p];
        has_cached_normal_ = true;
      }
    }
  }
}

void Rng::complex_normals(cplx* out, std::size_t n, double variance,
                          const NormalMath& math) {
  // std::complex<double> is array-compatible with double[2].
  double* parts = reinterpret_cast<double*>(out);
  normals(parts, 2 * n, math);
  const double s = std::sqrt(variance / 2.0);
  for (std::size_t i = 0; i < 2 * n; ++i) parts[i] = 0.0 + s * parts[i];
}

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double mean) {
  MMR_EXPECTS(mean > 0.0);
  // 1 - u lies in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform());
}

Rng Rng::fork() { return Rng(next_u64()); }

Rng Rng::from_state(std::uint64_t s0, std::uint64_t s1, std::uint64_t s2,
                    std::uint64_t s3) {
  MMR_EXPECTS((s0 | s1 | s2 | s3) != 0);
  Rng rng(0);
  rng.s_[0] = s0;
  rng.s_[1] = s1;
  rng.s_[2] = s2;
  rng.s_[3] = s3;
  return rng;
}

Rng Rng::fork(std::uint64_t stream_id) const {
  return Rng(derive_stream_seed(seed_, stream_id));
}

std::uint64_t Rng::derive_stream_seed(std::uint64_t base_seed,
                                      std::uint64_t stream_id) {
  // Two splitmix64 rounds decorrelate adjacent stream ids; mixing the
  // hashed base seed into the stream counter keeps streams of different
  // base seeds disjoint (base 1 / stream 2 != base 2 / stream 1).
  std::uint64_t sm = base_seed;
  const std::uint64_t base_hash = splitmix64(sm);
  sm = base_hash ^ (stream_id + 0x6A09E667F3BCC909ull);
  (void)splitmix64(sm);
  return splitmix64(sm);
}

}  // namespace mmr
