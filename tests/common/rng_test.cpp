#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace mmr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.01);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(sum2 / n - mean * mean, 9.0, 0.2);
}

TEST(Rng, ComplexNormalPower) {
  Rng rng(17);
  double power = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) power += std::norm(rng.complex_normal(0.5));
  EXPECT_NEAR(power / n, 0.5, 0.02);
}

TEST(Rng, UniformIndexBoundsAndCoverage) {
  Rng rng(19);
  bool seen[10] = {};
  for (int i = 0; i < 1000; ++i) {
    const auto idx = rng.uniform_index(10);
    ASSERT_LT(idx, 10u);
    seen[idx] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, UniformIndexRejectsZero) {
  Rng rng(23);
  EXPECT_THROW(rng.uniform_index(0), std::logic_error);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.25);
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng rng(37);
  EXPECT_THROW(rng.exponential(0.0), std::logic_error);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(41);
  Rng child = parent.fork();
  // The two streams should not be identical.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

// --- Batched draws (Rng::normals / complex_normals) ------------------
// With libm's transcendentals the batch must be bit for bit the sequence
// of normal() calls it replaces, and leave the generator in the same
// state: same uniforms consumed, same cached second sample.

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void expect_batch_matches_sequential(Rng batched, Rng sequential,
                                     std::size_t n, const std::string& where) {
  std::vector<double> got(n + 1, 42.0);  // got[n] guards against overrun
  batched.normals(got.data(), n, kLibmNormalMath);
  for (std::size_t i = 0; i < n; ++i) {
    const double want = sequential.normal();
    ASSERT_TRUE(same_bits(got[i], want))
        << where << " draw " << i << ": " << got[i] << " vs " << want;
  }
  EXPECT_EQ(got[n], 42.0) << where << ": wrote past n";
  // Same exit state: the cached sample (if any), then fresh pairs.
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(same_bits(batched.normal(), sequential.normal()))
        << where << ": normal() #" << k << " after the batch";
  }
  EXPECT_EQ(batched.next_u64(), sequential.next_u64()) << where;
}

TEST(RngBatch, NormalsEqualSequentialCallsBitwise) {
  for (std::size_t n = 0; n <= 129; ++n) {
    for (const bool primed : {false, true}) {
      Rng rng(1000 + n);
      // One normal() leaves the second sample of its pair cached, so the
      // batch enters with the cache full.
      if (primed) (void)rng.normal();
      expect_batch_matches_sequential(
          rng, rng, n,
          "n=" + std::to_string(n) + (primed ? " cached" : " empty"));
    }
  }
}

TEST(RngBatch, ZeroFirstUniformTakesTheSameNudge) {
  // With s0 == s3 == 0 the next xoshiro256++ output is rotl(0, 23) + 0,
  // so the first pair's u1 is exactly 0 and must become 2^-53.
  const Rng zero_first =
      Rng::from_state(0, 0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 0);
  Rng check = zero_first;
  ASSERT_EQ(check.uniform(), 0.0);
  for (const std::size_t n : {1u, 2u, 3u, 64u, 129u}) {
    expect_batch_matches_sequential(zero_first, zero_first, n,
                                    "zero u1, n=" + std::to_string(n));
  }
  Rng rng = zero_first;
  double first = 0.0;
  rng.normals(&first, 1, kLibmNormalMath);
  EXPECT_TRUE(std::isfinite(first));
  EXPECT_LE(std::abs(first), std::sqrt(-2.0 * std::log(0x1.0p-53)));
}

TEST(RngBatch, ComplexNormalsEqualSequentialCallsBitwise) {
  for (const std::size_t n : {0u, 1u, 2u, 5u, 63u, 64u, 65u}) {
    for (const bool primed : {false, true}) {
      Rng a(77 + n);
      if (primed) (void)a.normal();
      Rng b = a;
      std::vector<cplx> got(n);
      a.complex_normals(got.data(), n, 0.37, kLibmNormalMath);
      for (std::size_t i = 0; i < n; ++i) {
        const cplx want = b.complex_normal(0.37);
        ASSERT_TRUE(same_bits(got[i].real(), want.real()) &&
                    same_bits(got[i].imag(), want.imag()))
            << "n=" << n << " draw " << i;
      }
      EXPECT_TRUE(same_bits(a.normal(), b.normal())) << "n=" << n;
    }
  }
}

TEST(RngBatch, FromStateRejectsTheAllZeroState) {
  EXPECT_THROW(Rng::from_state(0, 0, 0, 0), std::logic_error);
}

}  // namespace
}  // namespace mmr
