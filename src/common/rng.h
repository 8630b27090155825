// Deterministic PRNG for reproducible experiments.
//
// Every stochastic component (channel realizations, blocker arrival, CFO
// drift, AWGN) draws from an explicitly seeded Rng so that figure
// reproductions are bit-stable across runs. The generator is
// xoshiro256++, which is fast, tiny, and has no global state.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace mmr {

/// The transcendentals of a batched Box-Muller draw, over arrays:
/// y[i] = log(x[i]); s[i] = sin(x[i]) and c[i] = cos(x[i]). Outputs do
/// not overlap x. A caller passes vector kernels here (dsp::normal_math),
/// which keeps this library free of a dsp dependency.
struct NormalMath {
  void (*log)(const double* x, double* y, std::size_t n);
  void (*sincos)(const double* x, double* s, double* c, std::size_t n);
};

/// libm's log and sin/cos over arrays: the reference transform. With it
/// Rng::normals is bit for bit the sequence of Rng::normal() calls.
void libm_log(const double* x, double* y, std::size_t n);
void libm_sincos(const double* x, double* s, double* c, std::size_t n);
inline constexpr NormalMath kLibmNormalMath{&libm_log, &libm_sincos};

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Raw 64 random bits.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal (Box-Muller; caches the second sample).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  cplx complex_normal(double variance = 1.0);

  /// out[0..n) = n standard normals, batched: the same uniforms in the
  /// same order as n calls to normal(), the same u1 == 0 nudge, and the
  /// same cached-second-sample hand-off at both ends. Only the log and
  /// sin/cos values come from `math`; normal() is normals(&z, 1,
  /// kLibmNormalMath). Allocation-free.
  void normals(double* out, std::size_t n, const NormalMath& math);

  /// out[0..n) = n draws of complex_normal(variance), batched through
  /// normals() (same draws, same scaling).
  void complex_normals(cplx* out, std::size_t n, double variance,
                       const NormalMath& math);

  /// True with probability p.
  bool bernoulli(double p);

  /// Exponential with given mean. Requires mean > 0.
  double exponential(double mean);

  /// Fork an independent stream (e.g. one per experiment repetition).
  /// Mutates this generator: consecutive calls return different streams.
  Rng fork();

  /// Fork the sub-stream `stream_id` of this generator's seed. Pure: the
  /// result depends only on (construction seed, stream_id), never on how
  /// many draws or forks happened in between, so parallel Monte-Carlo
  /// trials get identical streams regardless of scheduling or call order.
  Rng fork(std::uint64_t stream_id) const;

  /// Generator resuming from an explicit xoshiro256++ state (not all
  /// zero), e.g. one whose next uniform() is exactly 0. seed() is 0.
  static Rng from_state(std::uint64_t s0, std::uint64_t s1, std::uint64_t s2,
                        std::uint64_t s3);

  /// Seed of the independent sub-stream `stream_id` under `base_seed`
  /// (splitmix64-based mixing; what fork(stream_id) seeds its child with).
  static std::uint64_t derive_stream_seed(std::uint64_t base_seed,
                                          std::uint64_t stream_id);

  /// The seed this generator was constructed with.
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_;
  std::uint64_t s_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace mmr
