// Bit-exact regression for the super-resolution fit (paper Section 4.3).
// Twelve seeded impulse responses -- K = 1..5 beams, 16 and 24 taps, one
// CIR with corrupted (NaN/Inf) taps, and non-default refinement_rounds /
// common_shift_fine_steps -- are fitted and every output bit is compared
// with hexfloat literals: the alphas, the refined delays and the
// residual. A change to the dictionary's rounding, the order of the Gram
// or right-hand-side sums, the Cholesky order or the residual fails
// here, as does any change to which grid point wins. Builds that may
// fuse multiply-adds compare to a tolerance instead (see kBitExact).
//
// Regenerate ONLY for a deliberate, documented behaviour change: compile
// this file against the libraries that should define the values and run
// it with --gtest_also_run_disabled_tests
// --gtest_filter=SuperresGolden.DISABLED_DumpTable, then paste the
// printed table over kExpected. The values depend on libm's sin().
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/angles.h"
#include "common/rng.h"
#include "core/superres.h"
#include "dsp/sinc.h"

namespace mmr::core {
namespace {

constexpr double kBw = 400e6;
constexpr double kTs = 1.0 / kBw;  // 2.5 ns

struct GoldenCase {
  const char* name;
  std::uint64_t seed;
  std::size_t taps;
  std::size_t beams;
  bool corrupt;  ///< plant one NaN and one Inf tap
  std::size_t refinement_rounds;
  std::size_t common_shift_fine_steps;
};

constexpr GoldenCase kCases[] = {
    {"k1_24taps", 101, 24, 1, false, 1, 5},
    {"k1_16taps", 102, 16, 1, false, 1, 5},
    {"k2_24taps", 103, 24, 2, false, 1, 5},
    {"k2_16taps", 104, 16, 2, false, 1, 5},
    {"k3_24taps", 105, 24, 3, false, 1, 5},
    {"k3_16taps", 106, 16, 3, false, 1, 5},
    {"k4_24taps", 107, 24, 4, false, 1, 5},
    {"k5_24taps", 108, 24, 5, false, 1, 5},
    {"k5_16taps", 109, 16, 5, false, 1, 5},
    {"k2_24taps_nan_inf_taps", 110, 24, 2, true, 1, 5},
    {"k3_24taps_two_rounds", 111, 24, 3, false, 2, 5},
    {"k3_16taps_no_fine_shift", 112, 16, 3, false, 1, 1},
};

struct GoldenInput {
  CVec cir;
  RVec nominal_delays;
  SuperresConfig config;
};

// Beams spaced 0.6-4 ns apart (some below the 2.5 ns Fourier limit); the
// CIR carries a common timing shift, a small per-path drift and noise,
// so both search stages move.
GoldenInput make_input(const GoldenCase& c) {
  Rng rng(c.seed);
  GoldenInput in;
  in.nominal_delays.resize(c.beams);
  double delay = rng.uniform(0.0, 2.0e-9);
  for (double& d : in.nominal_delays) {
    d = delay;
    delay += rng.uniform(0.6e-9, 4.0e-9);
  }
  const double shift = rng.uniform(-0.8e-9, 0.8e-9);
  in.cir.assign(c.taps, cplx{});
  for (const double nominal : in.nominal_delays) {
    const cplx amp =
        std::polar(rng.uniform(0.2, 1.0), rng.uniform(-kPi, kPi));
    const double tau = nominal + shift + rng.uniform(-0.1e-9, 0.1e-9);
    for (std::size_t n = 0; n < c.taps; ++n) {
      in.cir[n] += amp * dsp::sampled_sinc_tap(n, kTs, kBw, tau);
    }
  }
  for (cplx& tap : in.cir) tap += rng.complex_normal(1e-6);
  if (c.corrupt) {
    in.cir[c.taps - 3] = cplx{std::nan(""), std::nan("")};
    in.cir[c.taps - 5] = cplx{std::numeric_limits<double>::infinity(), 0.0};
  }
  in.config.refinement_rounds = c.refinement_rounds;
  in.config.common_shift_fine_steps = c.common_shift_fine_steps;
  return in;
}

SuperresResult fit_case(const GoldenCase& c) {
  const GoldenInput in = make_input(c);
  return superres_per_beam(in.cir, in.nominal_delays, kTs, kBw, in.config);
}

struct Expected {
  std::vector<cplx> alphas;
  RVec delays_s;
  double residual;
};

// Generated with DISABLED_DumpTable (see the header comment).
const std::vector<Expected> kExpected = {
    {{{-0x1.337832141d44bp-3, 0x1.c9b0e3cf7ee7p-1}},
     {0x1.9b9e61372031p-30},
     0x1.6c9aa80978f7fp-7},  // k1_24taps
    {{{-0x1.1bdf0b080c402p-2, -0x1.4bdcd352bcfdep-1}},
     {0x1.49e4a490a996cp-31},
     0x1.ef44f5b636f6ep-7},  // k1_16taps
    {{{-0x1.1ee4bb6bf069dp-2, -0x1.00df8d7cc23f7p-2},
      {0x1.c535027b6e893p-2, 0x1.2ef6f2656a22ap-1}},
     {0x1.1d7b9279306f4p-30, 0x1.045128b835d81p-28},
     0x1.6574c686cc979p-8},  // k2_24taps
    {{{-0x1.330b479df490ep-2, 0x1.2b1c9d49363dp-1},
      {-0x1.190fba7b7938fp-1, -0x1.4d3b5268ad4a8p-2}},
     {-0x1.7a0ea9ed961a1p-33, 0x1.adaea6bb2c6dap-29},
     0x1.390edef2196efp-6},  // k2_16taps
    {{{-0x1.344163b312985p-1, 0x1.21edd9683b8f2p-1},
      {-0x1.2c5b63411ecc3p-3, -0x1.13abaa463ccb5p-1},
      {-0x1.da9472f53d7fcp-2, -0x1.015417d3b5b6p-1}},
     {0x1.24bddb8667231p-30, 0x1.5205398384defp-29, 0x1.8f62af6b13d34p-28},
     0x1.95478d9a9ad93p-7},  // k3_24taps
    {{{-0x1.b2f4506b8fe63p-2, 0x1.97042265b2fe6p-4},
      {-0x1.b54914f6849adp-3, -0x1.568ac17dc9ab3p-3},
      {0x1.1c05e4c440a71p-3, -0x1.4cacd708ac9f4p-2}},
     {0x1.08dc4a9114c5bp-31, 0x1.bfa87bfeb6cbdp-29, 0x1.8902ccc3aa1e2p-28},
     0x1.424feb1e2a0bp-7},  // k3_16taps
    {{{-0x1.adf377f143443p-1, -0x1.a1a7e6d7df31bp-2},
      {-0x1.9e65a543fcabdp-2, 0x1.3ff5fcd6b4276p-4},
      {0x1.5e84a82b8f26fp-1, -0x1.bcded099689f2p-5},
      {-0x1.454468465d4a7p-2, -0x1.d44595d7ebfd5p-1}},
     {0x1.10f4709b0f71bp-29, 0x1.f53027f3dd9ffp-29, 0x1.e4f1fa0b80548p-28,
      0x1.12dc111dd4554p-27},
     0x1.48ce2995d2dc5p-7},  // k4_24taps
    {{{0x1.fdebfe776e4fdp-2, 0x1.7300446919b6ep-1},
      {0x1.490b6a68d9964p-1, -0x1.4b5a648e521fap-1},
      {-0x1.06123e36a69c3p-2, -0x1.90d292522128bp-1},
      {-0x1.e55604780a3eap-3, 0x1.f779dfc8b6b3bp-1},
      {0x1.b05b7e4a58e94p-5, 0x1.0c120b0524a08p-1}},
     {0x1.69972b38aee84p-30, 0x1.a4dc28ed6b8d9p-29, 0x1.47a66dc65c4c4p-28,
      0x1.1eba6b03cc66fp-27, 0x1.9570a787e92fap-27},
     0x1.2c9a3793b3308p-5},  // k5_24taps
    {{{-0x1.c40fac0d00d31p-2, -0x1.139e27ec1b2dap-2},
      {-0x1.90720c5eed921p-5, -0x1.c1a0ff979f192p-3},
      {0x1.c366a973b8b46p-3, 0x1.9c2f2f9f9e971p-2},
      {-0x1.3d598e6d81021p-1, 0x1.76bc5da528855p-4},
      {0x1.03eab5a100841p-1, -0x1.1725a323ad7e4p-1}},
     {0x1.50207f5c7f082p-30, 0x1.59b6494b5ae58p-29, 0x1.c41a8c8229d89p-29,
      0x1.e48fea9bf83dbp-28, 0x1.320d5dd5e3602p-27},
     0x1.1160dc95b7e6cp-7},  // k5_16taps
    {{{0x1.12d1c02740717p-4, 0x1.e0fb70e39ee2p-2},
      {-0x1.2fd6fedb0c2fbp-2, -0x1.2b9268f3fff25p-1}},
     {0x1.7c21fd4223716p-32, 0x1.67033ea36cab4p-30},
     0x1.8c2d55e319b17p-7},  // k2_24taps_nan_inf_taps
    {{{-0x1.521b4a9db2fd2p-2, 0x1.153ffdef17872p-5},
      {0x1.13e30f64ec55bp-2, 0x1.0396f6d5d277ep-2},
      {-0x1.a2169c7f30b35p-5, -0x1.ad78fbd3a56c3p-1}},
     {0x1.e350334f25967p-31, 0x1.5b65cc3157d1dp-28, 0x1.983b02faea448p-28},
     0x1.b14211d408334p-7},  // k3_24taps_two_rounds
    {{{-0x1.a21ac8c703e05p-1, 0x1.7453f9c9677ecp-5},
      {-0x1.608c52c65ffe9p-1, 0x1.33c7dbb467e59p-1},
      {-0x1.380ec747cf7a1p-3, -0x1.aeef67dfab7ecp-1}},
     {0x1.dae76b814037ep-30, 0x1.85577b46dee7fp-28, 0x1.bfed873c50952p-28},
     0x1.8a5c6959f2e7ap-6},  // k3_16taps_no_fine_shift
};

// The pins are the bits of a build that does not fuse multiply-adds, the
// default. Where the target has FMA (MMR_NATIVE=ON on x86-64, any
// aarch64 build) the compiler may contract a*b+c and move the last bits;
// there the fit must still match to the 1e-9 relative tolerance of the
// other goldens, so a change of winning grid point still fails.
#if defined(__FMA__) || defined(__ARM_FEATURE_FMA)
constexpr bool kBitExact = false;
#else
constexpr bool kBitExact = true;
#endif

std::string hexfloat(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

void expect_pinned(double got, double want, const char* what) {
  if (kBitExact) {
    EXPECT_EQ(hexfloat(got), hexfloat(want)) << what;
  } else {
    EXPECT_NEAR(got, want, std::abs(want) * 1e-9) << what;
  }
}

TEST(SuperresGolden, FitsAreBitIdentical) {
  ASSERT_EQ(kExpected.size(), std::size(kCases));
  for (std::size_t i = 0; i < kExpected.size(); ++i) {
    const GoldenCase& c = kCases[i];
    SCOPED_TRACE(c.name);
    const SuperresResult fit = fit_case(c);
    const Expected& want = kExpected[i];
    ASSERT_EQ(fit.alphas.size(), c.beams);
    ASSERT_EQ(want.alphas.size(), c.beams);
    for (std::size_t k = 0; k < c.beams; ++k) {
      SCOPED_TRACE(k);
      expect_pinned(fit.alphas[k].real(), want.alphas[k].real(), "Re alpha");
      expect_pinned(fit.alphas[k].imag(), want.alphas[k].imag(), "Im alpha");
      expect_pinned(fit.delays_s[k], want.delays_s[k], "delay");
    }
    expect_pinned(fit.residual, want.residual, "residual");
  }
}

TEST(SuperresGolden, DISABLED_DumpTable) {
  for (const GoldenCase& c : kCases) {
    const SuperresResult fit = fit_case(c);
    std::printf("    {{");
    for (std::size_t k = 0; k < fit.alphas.size(); ++k) {
      std::printf("%s{%a, %a}", k ? ", " : "", fit.alphas[k].real(),
                  fit.alphas[k].imag());
    }
    std::printf("},\n     {");
    for (std::size_t k = 0; k < fit.delays_s.size(); ++k) {
      std::printf("%s%a", k ? ", " : "", fit.delays_s[k]);
    }
    std::printf("},\n     %a},  // %s\n", fit.residual, c.name);
  }
}

}  // namespace
}  // namespace mmr::core
