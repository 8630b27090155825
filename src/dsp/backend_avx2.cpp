// AVX2+FMA backend (x86-64). Every function carrying intrinsics is
// annotated __attribute__((target("avx2,fma"))), so this TU compiles in
// ANY x86-64 build -- including -DMMR_NATIVE=OFF baseline-ISA builds --
// and the dispatcher only ever calls these entry points after CPUID
// reports avx2+fma (see backend.cpp). Do not add -mavx2 to this TU's
// flags: that would let the compiler leak AVX2 into code reachable
// before the CPUID check.
//
// Data layout: std::complex<double> is an [re, im] pair, so one __m256d
// holds two complexes [re0 im0 re1 im1]. Complex multiply p*q is the
// classic addsub idiom:
//   fmaddsub(p, dup_even(q), swap_pairs(p) * dup_odd(q))
//     even lane: pr*qr - pi*qi, odd lane: pi*qr + pr*qi.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <limits>

#include "common/angles.h"
#include "common/types.h"
#include "dsp/backend.h"
#include "dsp/backend_kernels.h"

#define MMR_AVX2 __attribute__((target("avx2,fma")))

namespace mmr::dsp::detail {

namespace {

constexpr std::size_t kB = kRampBlock;

MMR_AVX2 inline __m256d cmul2(__m256d p, __m256d q) {
  const __m256d qre = _mm256_movedup_pd(q);
  const __m256d qim = _mm256_permute_pd(q, 0xF);
  const __m256d pswap = _mm256_permute_pd(p, 0x5);
  return _mm256_fmaddsub_pd(p, qre, _mm256_mul_pd(pswap, qim));
}

// p * (cr + j ci) with the scalar already broadcast.
MMR_AVX2 inline __m256d cmul_const(__m256d p, __m256d cr, __m256d ci) {
  const __m256d pswap = _mm256_permute_pd(p, 0x5);
  return _mm256_fmaddsub_pd(p, cr, _mm256_mul_pd(pswap, ci));
}

MMR_AVX2 inline cplx hsum_cplx(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d s = _mm_add_pd(lo, hi);
  alignas(16) double buf[2];
  _mm_store_pd(buf, s);
  return cplx(buf[0], buf[1]);
}

inline void exact_phasor(double step, std::size_t i, double* re, double* im) {
  const double ang = -step * static_cast<double>(i);
  *re = std::cos(ang);
  *im = std::sin(ang);
}

// (a_re + j a_im) *= (rot_re + j rot_im). Used to derive every second
// anchor of the ramp kernels from the previous libm anchor: the sincos
// call is the block loop's bottleneck, and the derived anchor is only one
// rounded complex multiply away from exact, so the per-element error
// stays O(1) ulp regardless of n (each block's anchor is at most one
// multiply from a libm value -- the error does NOT accumulate across
// blocks).
inline void rotate_anchor(double rot_re, double rot_im, double* a_re,
                          double* a_im) {
  const double re = *a_re * rot_re - *a_im * rot_im;
  const double im = *a_re * rot_im + *a_im * rot_re;
  *a_re = re;
  *a_im = im;
}

// Deltas as two interleaved vectors [re0 im0 re1 im1] per pair.
struct InterleavedDeltas {
  __m256d v[kB / 2];
};

MMR_AVX2 inline InterleavedDeltas interleave_deltas(const RampDeltas& d) {
  InterleavedDeltas out;
  for (std::size_t k = 0; k < kB / 2; ++k) {
    out.v[k] = _mm256_set_pd(d.im[2 * k + 1], d.re[2 * k + 1], d.im[2 * k],
                             d.re[2 * k]);
  }
  return out;
}

}  // namespace

MMR_AVX2 void avx2_axpy(cplx alpha, const cplx* x, cplx* y, std::size_t n) {
  const double* xp = reinterpret_cast<const double*>(x);
  double* yp = reinterpret_cast<double*>(y);
  const __m256d ar = _mm256_set1_pd(alpha.real());
  const __m256d ai = _mm256_set1_pd(alpha.imag());
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x0 = _mm256_loadu_pd(xp + 2 * i);
    const __m256d x1 = _mm256_loadu_pd(xp + 2 * i + 4);
    const __m256d y0 = _mm256_loadu_pd(yp + 2 * i);
    const __m256d y1 = _mm256_loadu_pd(yp + 2 * i + 4);
    _mm256_storeu_pd(yp + 2 * i, _mm256_add_pd(y0, cmul_const(x0, ar, ai)));
    _mm256_storeu_pd(yp + 2 * i + 4,
                     _mm256_add_pd(y1, cmul_const(x1, ar, ai)));
  }
  const double sar = alpha.real();
  const double sai = alpha.imag();
  for (; i < n; ++i) {
    const double xr = xp[2 * i];
    const double xi = xp[2 * i + 1];
    yp[2 * i] += sar * xr - sai * xi;
    yp[2 * i + 1] += sar * xi + sai * xr;
  }
}

MMR_AVX2 void avx2_phasor_ramp(double step, std::size_t n, cplx* dst) {
  if (n < 2 * kB) {
    scalar_phasor_ramp(step, n, dst);
    return;
  }
  const RampDeltas d = compute_ramp_deltas(step);
  const InterleavedDeltas dv = interleave_deltas(d);
  double rot_re;
  double rot_im;
  exact_phasor(step, kB, &rot_re, &rot_im);
  double* out = reinterpret_cast<double*>(dst);
  const auto emit_block = [&](std::size_t base, double a_re, double a_im)
                              MMR_AVX2 {
    const __m256d are = _mm256_set1_pd(a_re);
    const __m256d aim = _mm256_set1_pd(a_im);
    for (std::size_t k = 0; k < kB / 2; ++k) {
      _mm256_storeu_pd(out + 2 * base + 4 * k, cmul_const(dv.v[k], are, aim));
    }
  };
  std::size_t i = 0;
  for (; i + 2 * kB <= n; i += 2 * kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    emit_block(i, a_re, a_im);
    rotate_anchor(rot_re, rot_im, &a_re, &a_im);
    emit_block(i + kB, a_re, a_im);
  }
  for (; i + kB <= n; i += kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    emit_block(i, a_re, a_im);
  }
  for (; i < n; ++i) {
    exact_phasor(step, i, &out[2 * i], &out[2 * i + 1]);
  }
}

MMR_AVX2 cplx avx2_dot_phasor_ramp(double step, const cplx* w, std::size_t n) {
  if (n < 2 * kB) return scalar_dot_phasor_ramp(step, w, n);
  const RampDeltas d = compute_ramp_deltas(step);
  const InterleavedDeltas dv = interleave_deltas(d);
  double rot_re;
  double rot_im;
  exact_phasor(step, kB, &rot_re, &rot_im);
  const double* wp = reinterpret_cast<const double*>(w);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  const auto add_block = [&](std::size_t base, double a_re, double a_im)
                             MMR_AVX2 {
    const __m256d are = _mm256_set1_pd(a_re);
    const __m256d aim = _mm256_set1_pd(a_im);
    acc0 = _mm256_add_pd(
        acc0, cmul2(cmul_const(dv.v[0], are, aim),
                    _mm256_loadu_pd(wp + 2 * base)));
    acc1 = _mm256_add_pd(
        acc1, cmul2(cmul_const(dv.v[1], are, aim),
                    _mm256_loadu_pd(wp + 2 * base + 4)));
    acc2 = _mm256_add_pd(
        acc2, cmul2(cmul_const(dv.v[2], are, aim),
                    _mm256_loadu_pd(wp + 2 * base + 8)));
    acc3 = _mm256_add_pd(
        acc3, cmul2(cmul_const(dv.v[3], are, aim),
                    _mm256_loadu_pd(wp + 2 * base + 12)));
  };
  std::size_t i = 0;
  for (; i + 2 * kB <= n; i += 2 * kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    add_block(i, a_re, a_im);
    rotate_anchor(rot_re, rot_im, &a_re, &a_im);
    add_block(i + kB, a_re, a_im);
  }
  for (; i + kB <= n; i += kB) {
    double a_re;
    double a_im;
    exact_phasor(step, i, &a_re, &a_im);
    add_block(i, a_re, a_im);
  }
  const __m256d sum = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3));
  cplx acc = hsum_cplx(sum);
  double re = acc.real();
  double im = acc.imag();
  for (; i < n; ++i) {
    double pre;
    double pim;
    exact_phasor(step, i, &pre, &pim);
    const double wr = wp[2 * i];
    const double wi = wp[2 * i + 1];
    re += pre * wr - pim * wi;
    im += pre * wi + pim * wr;
  }
  return cplx(re, im);
}

MMR_AVX2 cplx avx2_dot_phasors(const cplx* ph, const cplx* w, std::size_t n) {
  // avx2_dot_phasor_ramp's accumulation over stored phasors: block b's
  // four vectors go to acc0..acc3, the same lanes the fused kernel feeds.
  if (n < 2 * kB) return scalar_dot_phasors(ph, w, n);
  const double* pp = reinterpret_cast<const double*>(ph);
  const double* wp = reinterpret_cast<const double*>(w);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + kB <= n; i += kB) {
    acc0 = _mm256_add_pd(acc0, cmul2(_mm256_loadu_pd(pp + 2 * i),
                                     _mm256_loadu_pd(wp + 2 * i)));
    acc1 = _mm256_add_pd(acc1, cmul2(_mm256_loadu_pd(pp + 2 * i + 4),
                                     _mm256_loadu_pd(wp + 2 * i + 4)));
    acc2 = _mm256_add_pd(acc2, cmul2(_mm256_loadu_pd(pp + 2 * i + 8),
                                     _mm256_loadu_pd(wp + 2 * i + 8)));
    acc3 = _mm256_add_pd(acc3, cmul2(_mm256_loadu_pd(pp + 2 * i + 12),
                                     _mm256_loadu_pd(wp + 2 * i + 12)));
  }
  const __m256d sum = _mm256_add_pd(_mm256_add_pd(acc0, acc1),
                                    _mm256_add_pd(acc2, acc3));
  cplx acc = hsum_cplx(sum);
  double re = acc.real();
  double im = acc.imag();
  for (; i < n; ++i) {
    const double pre = pp[2 * i];
    const double pim = pp[2 * i + 1];
    const double wr = wp[2 * i];
    const double wi = wp[2 * i + 1];
    re += pre * wr - pim * wi;
    im += pre * wi + pim * wr;
  }
  return cplx(re, im);
}

MMR_AVX2 void avx2_delay_phasors(const double* freqs, bool affine, double df,
                                 double delay_s, cplx* dst, std::size_t n) {
  if (n < 2 * kB || !affine) {
    scalar_delay_phasors(freqs, affine, df, delay_s, dst, n);
    return;
  }
  RampDeltas d;
  for (std::size_t k = 0; k < kB; ++k) {
    const double ang = -2.0 * kPi * (df * static_cast<double>(k)) * delay_s;
    d.re[k] = std::cos(ang);
    d.im[k] = std::sin(ang);
  }
  const InterleavedDeltas dv = interleave_deltas(d);
  // Block-to-block rotation for the affine grid (kB*df per block); one
  // complex multiply derives every second anchor (see rotate_anchor).
  const double rot_ang = -2.0 * kPi * (df * static_cast<double>(kB)) * delay_s;
  const double rot_re = std::cos(rot_ang);
  const double rot_im = std::sin(rot_ang);
  double* out = reinterpret_cast<double*>(dst);
  const auto emit_block = [&](std::size_t base, double a_re, double a_im)
                              MMR_AVX2 {
    const __m256d are = _mm256_set1_pd(a_re);
    const __m256d aim = _mm256_set1_pd(a_im);
    for (std::size_t k = 0; k < kB / 2; ++k) {
      _mm256_storeu_pd(out + 2 * base + 4 * k, cmul_const(dv.v[k], are, aim));
    }
  };
  std::size_t i = 0;
  for (; i + 2 * kB <= n; i += 2 * kB) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    double a_re = std::cos(ang);
    double a_im = std::sin(ang);
    emit_block(i, a_re, a_im);
    rotate_anchor(rot_re, rot_im, &a_re, &a_im);
    emit_block(i + kB, a_re, a_im);
  }
  for (; i + kB <= n; i += kB) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    emit_block(i, std::cos(ang), std::sin(ang));
  }
  for (; i < n; ++i) {
    const double ang = -2.0 * kPi * freqs[i] * delay_s;
    out[2 * i] = std::cos(ang);
    out[2 * i + 1] = std::sin(ang);
  }
}

MMR_AVX2 void avx2_accumulate_phasors(cplx alpha, bool affine, const cplx* ph,
                                      cplx* dst, std::size_t n) {
  // Short or non-affine grids were formed by the scalar loop, whose MAC
  // is std::complex's; otherwise whole blocks take the vector MAC and the
  // tail the scalar formula, as the fused kernel did.
  if (n < 2 * kB || !affine) {
    scalar_accumulate_phasors(alpha, affine, ph, dst, n);
    return;
  }
  const __m256d alr = _mm256_set1_pd(alpha.real());
  const __m256d ali = _mm256_set1_pd(alpha.imag());
  const double* pp = reinterpret_cast<const double*>(ph);
  double* dp = reinterpret_cast<double*>(dst);
  const std::size_t blocks_end = n / kB * kB;
  std::size_t i = 0;
  for (; i < blocks_end; i += 2) {
    const __m256d yv = _mm256_loadu_pd(dp + 2 * i);
    _mm256_storeu_pd(dp + 2 * i,
                     _mm256_add_pd(yv, cmul_const(_mm256_loadu_pd(pp + 2 * i),
                                                  alr, ali)));
  }
  const double sar = alpha.real();
  const double sai = alpha.imag();
  for (; i < n; ++i) {
    const double pre = pp[2 * i];
    const double pim = pp[2 * i + 1];
    dp[2 * i] += sar * pre - sai * pim;
    dp[2 * i + 1] += sar * pim + sai * pre;
  }
}

// ---------------------------------------------------------------------------
// Vector log and sincos. Four lanes per step, each lane independent of
// its neighbours; a lane outside the kernel's domain is recomputed with
// libm after the vector store, and the n % 4 tail is libm too (so n == 1
// is exact libm). Coefficients are fdlibm's (e_log.c, k_sin.c, k_cos.c).
// ---------------------------------------------------------------------------

namespace {

constexpr double kMinNormal = std::numeric_limits<double>::min();
constexpr double kMaxFinite = std::numeric_limits<double>::max();

// log(x) = e ln2 + log(m), x = 2^e m with m in [sqrt(2)/2, sqrt(2)];
// log(m) = log((1 + s) / (1 - s)) with s = f / (2 + f), f = m - 1.
constexpr double kLn2Hi = 6.93147180369123816490e-01;  // 0x3fe62e42fee00000
constexpr double kLn2Lo = 1.90821492927058770002e-10;  // 0x3dea39ef35793c76
constexpr double kLg1 = 6.666666666666735130e-01;
constexpr double kLg2 = 3.999999999940941908e-01;
constexpr double kLg3 = 2.857142874366239149e-01;
constexpr double kLg4 = 2.222219843214978396e-01;
constexpr double kLg5 = 1.818357216161805012e-01;
constexpr double kLg6 = 1.531383769920937332e-01;
constexpr double kLg7 = 1.479819860511658591e-01;

// Cody-Waite reduction x = j pi/2 + r, |r| <~ pi/4, with pi/2 split in
// three: the first two parts carry 33 bits each, so j * part is exact
// for |j| < 2^20 and x - j * kPio2_1 is exact. Beyond kSincosMaxArg the
// lane takes libm.
constexpr double kSincosMaxArg = 0x1p20;
constexpr double kTwoOverPi = 6.36619772367581382433e-01;
constexpr double kPio2_1 = 1.57079632673412561417e+00;   // 0x3ff921fb54400000
constexpr double kPio2_2 = 6.07710050630396597660e-11;   // 0x3dd0b4611a600000
constexpr double kPio2_2t = 2.02226624879595063154e-21;  // 0x3ba3198a2e037073
constexpr double kS1 = -1.66666666666666324348e-01;
constexpr double kS2 = 8.33333333332248946124e-03;
constexpr double kS3 = -1.98412698298579493134e-04;
constexpr double kS4 = 2.75573137070700676789e-06;
constexpr double kS5 = -2.50507602534068634195e-08;
constexpr double kS6 = 1.58969099521155010221e-10;
constexpr double kC1 = 4.16666666666666019037e-02;
constexpr double kC2 = -1.38888888888741095749e-03;
constexpr double kC3 = 2.48015872894767294178e-05;
constexpr double kC4 = -2.75573143513906633035e-07;
constexpr double kC5 = 2.08757232129817482790e-09;
constexpr double kC6 = -1.13596475577881948265e-11;

MMR_AVX2 inline __m256d splat(double v) { return _mm256_set1_pd(v); }

// Horner step a * x + b.
MMR_AVX2 inline __m256d mad(__m256d a, __m256d x, __m256d b) {
  return _mm256_fmadd_pd(a, x, b);
}

// Bit mask (one bit per lane) of the lanes with lo <= |v| <= hi; NaN
// lanes compare false.
MMR_AVX2 inline int lanes_within(__m256d v, double lo, double hi) {
  const __m256d a = _mm256_andnot_pd(splat(-0.0), v);
  const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(a, splat(lo), _CMP_GE_OQ),
                                   _mm256_cmp_pd(a, splat(hi), _CMP_LE_OQ));
  return _mm256_movemask_pd(ok);
}

MMR_AVX2 inline __m256d log4(__m256d x) {
  const __m256d one = splat(1.0);
  const __m256i bits = _mm256_castpd_si256(x);
  // m in [1, 2) from the mantissa; e from the biased exponent, converted
  // exactly through the 2^52 trick.
  __m256d m = _mm256_castsi256_pd(
      _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFll)),
                      _mm256_set1_epi64x(0x3FF0000000000000ll)));
  __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_srli_epi64(bits, 52), _mm256_set1_epi64x(0x4330000000000000ll))),
      splat(0x1p52 + 1023.0));
  const __m256d big = _mm256_cmp_pd(m, splat(1.41421356237309504880), _CMP_GT_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, splat(0.5)), big);
  e = _mm256_add_pd(e, _mm256_and_pd(big, one));
  const __m256d f = _mm256_sub_pd(m, one);  // exact
  const __m256d hfsq = _mm256_mul_pd(_mm256_mul_pd(splat(0.5), f), f);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(splat(2.0), f));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d w = _mm256_mul_pd(z, z);
  const __m256d t1 = _mm256_mul_pd(
      w, mad(w, mad(w, splat(kLg6), splat(kLg4)), splat(kLg2)));
  const __m256d t2 = _mm256_mul_pd(
      z, mad(w, mad(w, mad(w, splat(kLg7), splat(kLg5)), splat(kLg3)),
             splat(kLg1)));
  const __m256d r = _mm256_add_pd(t2, t1);
  // s (hfsq + R) + e ln2_lo - hfsq + f + e ln2_hi, left to right.
  __m256d acc = mad(s, _mm256_add_pd(hfsq, r), _mm256_mul_pd(e, splat(kLn2Lo)));
  acc = _mm256_sub_pd(acc, hfsq);
  acc = _mm256_add_pd(acc, f);
  return mad(e, splat(kLn2Hi), acc);
}

MMR_AVX2 inline void sincos4(__m256d x, __m256d* sin_out, __m256d* cos_out) {
  const __m256d j = _mm256_round_pd(_mm256_mul_pd(x, splat(kTwoOverPi)),
                                    _MM_FROUND_TO_NEAREST_INT |
                                        _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(j, splat(kPio2_1), x);
  r = _mm256_fnmadd_pd(j, splat(kPio2_2), r);
  r = _mm256_fnmadd_pd(j, splat(kPio2_2t), r);
  const __m256d z = _mm256_mul_pd(r, r);
  // sin r = r + r^3 (S1 + z (S2 + ... + z S6))
  const __m256d sp = mad(
      z, mad(z, mad(z, mad(z, splat(kS6), splat(kS5)), splat(kS4)), splat(kS3)),
      splat(kS2));
  const __m256d sin_r = mad(_mm256_mul_pd(z, r), mad(z, sp, splat(kS1)), r);
  // cos r = w + (((1 - w) - z/2) + z R), w = 1 - z/2
  const __m256d w2 = _mm256_mul_pd(z, z);
  const __m256d cr = _mm256_add_pd(
      _mm256_mul_pd(z, mad(z, mad(z, splat(kC3), splat(kC2)), splat(kC1))),
      _mm256_mul_pd(_mm256_mul_pd(w2, w2),
                    mad(z, mad(z, splat(kC6), splat(kC5)), splat(kC4))));
  const __m256d hz = _mm256_mul_pd(splat(0.5), z);
  const __m256d w = _mm256_sub_pd(splat(1.0), hz);
  const __m256d cos_r = _mm256_add_pd(
      w, mad(z, cr, _mm256_sub_pd(_mm256_sub_pd(splat(1.0), w), hz)));
  // Quadrant q = j mod 4 from the low mantissa bits of j + 1.5 * 2^52:
  // odd q swaps sin and cos; sin is negated for q in {2, 3}, cos for
  // q in {1, 2}.
  const __m256i q = _mm256_castpd_si256(_mm256_add_pd(j, splat(0x1.8p52)));
  const __m256d swap = _mm256_castsi256_pd(_mm256_slli_epi64(q, 63));
  const __m256d sign = splat(-0.0);
  const __m256d sin_sign =
      _mm256_and_pd(_mm256_castsi256_pd(_mm256_slli_epi64(q, 62)), sign);
  const __m256d cos_sign = _mm256_and_pd(
      _mm256_castsi256_pd(_mm256_slli_epi64(
          _mm256_add_epi64(q, _mm256_set1_epi64x(1)), 62)),
      sign);
  *sin_out = _mm256_xor_pd(_mm256_blendv_pd(sin_r, cos_r, swap), sin_sign);
  *cos_out = _mm256_xor_pd(_mm256_blendv_pd(cos_r, sin_r, swap), cos_sign);
}

}  // namespace

MMR_AVX2 void avx2_log(const double* x, double* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(y + i, log4(v));
    // Positive normal finite lanes only: zero, negatives, subnormals,
    // Inf and NaN take libm.
    const int ok = lanes_within(v, kMinNormal, kMaxFinite) &
                   ~_mm256_movemask_pd(v);
    if (ok != 0xF) {
      for (std::size_t l = 0; l < 4; ++l) {
        if (!(ok & (1 << l))) y[i + l] = std::log(x[i + l]);
      }
    }
  }
  for (; i < n; ++i) y[i] = std::log(x[i]);
}

MMR_AVX2 void avx2_sincos(const double* x, double* s, double* c,
                          std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    __m256d sv;
    __m256d cv;
    sincos4(v, &sv, &cv);
    _mm256_storeu_pd(s + i, sv);
    _mm256_storeu_pd(c + i, cv);
    // Normal finite lanes within the reduction's range only: zeros
    // (whose sign sin must keep), subnormals, |x| > 2^20, Inf and NaN
    // take libm.
    const int ok = lanes_within(v, kMinNormal, kSincosMaxArg);
    if (ok != 0xF) {
      for (std::size_t l = 0; l < 4; ++l) {
        if (!(ok & (1 << l))) {
          s[i + l] = std::sin(x[i + l]);
          c[i + l] = std::cos(x[i + l]);
        }
      }
    }
  }
  for (; i < n; ++i) {
    s[i] = std::sin(x[i]);
    c[i] = std::cos(x[i]);
  }
}

const KernelTable* avx2_table() {
  static const KernelTable table = [] {
    KernelTable t;
    t.phasor_ramp = &avx2_phasor_ramp;
    t.dot_phasor_ramp = &avx2_dot_phasor_ramp;
    t.axpy = &avx2_axpy;
    t.delay_phasors = &avx2_delay_phasors;
    t.accumulate_phasors = &avx2_accumulate_phasors;
    t.dot_phasors = &avx2_dot_phasors;
    t.log = &avx2_log;
    t.sincos = &avx2_sincos;
    t.sinc_taps = &avx2_sinc_taps;
    return t;
  }();
  return &table;
}

}  // namespace mmr::dsp::detail

#else  // !x86-64

#include "dsp/backend.h"

namespace mmr::dsp::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace mmr::dsp::detail

#endif
