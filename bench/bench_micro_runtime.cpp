// Algorithm runtime micro-benchmarks (google-benchmark).
// Paper performance claims exercised here:
//  * Section 4.3: the super-resolution solve completes in ~100 us.
//  * Section 5.1: multi-beam weights are synthesized on the fly from
//    stored single-beam weights (fast enough for the FPGA path).
// A custom main runs the registered benchmarks and then a short engine
// campaign, so even the micro bench exercises (and emits JSON through)
// the experiment-engine path.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "array/codebook.h"
#include "array/pattern.h"
#include "array/pattern_cache.h"
#include "channel/wideband.h"
#include "common/angles.h"
#include "common/rng.h"
#include "common/units.h"
#include "core/multibeam.h"
#include "core/probing.h"
#include "core/superres.h"
#include "dsp/backend.h"
#include "dsp/fft.h"
#include "dsp/kernels.h"
#include "dsp/sinc.h"
#include "sim/engine.h"
#include "sim/telemetry.h"

using namespace mmr;

namespace {

CVec make_cir(std::size_t taps, const RVec& delays, Rng& rng) {
  constexpr double kBw = 400e6;
  constexpr double kTs = 1.0 / kBw;
  CVec cir(taps, cplx{});
  RVec pulse(taps);
  for (std::size_t k = 0; k < delays.size(); ++k) {
    const cplx amp = rng.complex_normal();
    dsp::sinc_pulse(kTs, kBw, delays[k], pulse);
    for (std::size_t n = 0; n < taps; ++n) cir[n] += amp * pulse[n];
  }
  return cir;
}

void BM_SuperresSolve2Beam(benchmark::State& state) {
  Rng rng(3);
  const RVec delays{0.0, 1.4e-9};
  const CVec cir = make_cir(24, delays, rng);
  for (auto _ : state) {
    auto fit = core::superres_per_beam(cir, delays, 2.5e-9, 400e6);
    benchmark::DoNotOptimize(fit.alphas);
  }
}
BENCHMARK(BM_SuperresSolve2Beam);

void BM_SuperresSolve3Beam(benchmark::State& state) {
  Rng rng(5);
  const RVec delays{0.0, 1.4e-9, 4.0e-9};
  const CVec cir = make_cir(24, delays, rng);
  for (auto _ : state) {
    auto fit = core::superres_per_beam(cir, delays, 2.5e-9, 400e6);
    benchmark::DoNotOptimize(fit.alphas);
  }
}
BENCHMARK(BM_SuperresSolve3Beam);

// The monitoring tick's form: one workspace reused by every fit.
void BM_SuperresSolve3BeamWorkspace(benchmark::State& state) {
  Rng rng(5);
  const RVec delays{0.0, 1.4e-9, 4.0e-9};
  const CVec cir = make_cir(24, delays, rng);
  core::SuperresWorkspace workspace;
  for (auto _ : state) {
    const auto& fit =
        core::superres_per_beam(cir, delays, 2.5e-9, 400e6, {}, workspace);
    benchmark::DoNotOptimize(fit.alphas);
  }
}
BENCHMARK(BM_SuperresSolve3BeamWorkspace);

void BM_MultibeamSynthesis(benchmark::State& state) {
  const array::Ula ula{static_cast<std::size_t>(state.range(0)), 0.5};
  const std::vector<core::BeamComponent> comps{
      {deg_to_rad(-20.0), cplx{1.0, 0.0}},
      {deg_to_rad(15.0), std::polar(0.6, 1.0)},
      {deg_to_rad(40.0), std::polar(0.4, -0.5)}};
  for (auto _ : state) {
    auto mb = core::synthesize_multibeam(ula, comps);
    benchmark::DoNotOptimize(mb.weights);
  }
}
BENCHMARK(BM_MultibeamSynthesis)->Arg(8)->Arg(64)->Arg(256);

void BM_TwoProbeRatioMath(benchmark::State& state) {
  for (auto _ : state) {
    const cplx r = core::ratio_from_powers(1.3, 0.6, 2.9, 1.1);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_TwoProbeRatioMath);

void BM_WidebandCsi64(benchmark::State& state) {
  const array::Ula ula{8, 0.5};
  const channel::WidebandSpec spec{28e9, 400e6, 64};
  channel::Path p0;
  p0.aod_rad = 0.0;
  p0.gain = cplx{1e-4, 0.0};
  channel::Path p1 = p0;
  p1.aod_rad = deg_to_rad(20.0);
  p1.delay_s = 1.5e-9;
  const std::vector<channel::Path> paths{p0, p1};
  const CVec w = array::single_beam_weights(ula, 0.0);
  for (auto _ : state) {
    auto csi = channel::effective_csi(paths, ula, w, spec,
                                      channel::RxFrontend::omni());
    benchmark::DoNotOptimize(csi);
  }
}
BENCHMARK(BM_WidebandCsi64);

void BM_Fft(benchmark::State& state) {
  Rng rng(7);
  CVec x(static_cast<std::size_t>(state.range(0)));
  for (auto& c : x) c = rng.complex_normal();
  for (auto _ : state) {
    auto y = dsp::fft(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Fft)->Arg(64)->Arg(1024)->Arg(1000);

void BM_CodebookConstruction(benchmark::State& state) {
  const array::Ula ula{64, 0.5};
  for (auto _ : state) {
    array::Codebook cb(ula, deg_to_rad(-60.0), deg_to_rad(60.0), 64);
    benchmark::DoNotOptimize(cb.size());
  }
}
BENCHMARK(BM_CodebookConstruction);

// ---------------------------------------------------------------------------
// Kernel before/after benchmarks. The *_Scalar variants inline the
// pre-kernel implementation shapes (per-angle steering-vector temporary +
// materialized dot); the *_Fused / *_Cached variants are the production
// paths. Every variant reports items_per_second via
// SetItemsProcessed (one item = one evaluated angle), so the before/after
// throughput ratio is read directly off --benchmark_format=json.
// ---------------------------------------------------------------------------

CVec scalar_steering(const array::Ula& ula, double phi_rad) {
  CVec a(ula.num_elements);
  const double k = 2.0 * kPi * ula.spacing_wavelengths * std::sin(phi_rad);
  for (std::size_t n = 0; n < ula.num_elements; ++n) {
    const double ang = -k * static_cast<double>(n);
    a[n] = cplx(std::cos(ang), std::sin(ang));
  }
  return a;
}

RVec bench_angle_grid(std::size_t points) {
  RVec phis(points);
  for (std::size_t i = 0; i < points; ++i) {
    phis[i] = deg_to_rad(-60.0) +
              deg_to_rad(120.0) * static_cast<double>(i) /
                  static_cast<double>(points - 1);
  }
  return phis;
}

void BM_SingleBeamWeights_Scalar(benchmark::State& state) {
  const array::Ula ula{64, 0.5};
  const RVec phis = bench_angle_grid(64);
  for (auto _ : state) {
    for (double phi : phis) {
      CVec w = array::single_beam_weights(ula, phi);
      benchmark::DoNotOptimize(w.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(phis.size()));
}
BENCHMARK(BM_SingleBeamWeights_Scalar);

void BM_SingleBeamWeights_Cached(benchmark::State& state) {
  const array::Ula ula{64, 0.5};
  const RVec phis = bench_angle_grid(64);
  array::PatternCache& cache = array::PatternCache::instance();
  for (auto _ : state) {
    for (double phi : phis) {
      auto w = cache.beam_weights(ula, phi);
      benchmark::DoNotOptimize(w->data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(phis.size()));
}
BENCHMARK(BM_SingleBeamWeights_Cached);

void BM_PatternCut_Scalar(benchmark::State& state) {
  const array::Ula ula{64, 0.5};
  const CVec w = array::single_beam_weights(ula, 0.0);
  constexpr std::size_t kPoints = 181;
  for (auto _ : state) {
    // Pre-kernel pattern_cut shape: per-angle steering temporary +
    // materialized dot + dB conversion.
    array::PatternCut cut;
    cut.angle_rad = bench_angle_grid(kPoints);
    cut.gain_db.resize(kPoints);
    for (std::size_t i = 0; i < kPoints; ++i) {
      const CVec a = scalar_steering(ula, cut.angle_rad[i]);
      cplx af{};
      for (std::size_t n = 0; n < a.size(); ++n) af += a[n] * w[n];
      cut.gain_db[i] = to_db(std::norm(af));
    }
    benchmark::DoNotOptimize(cut.gain_db.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPoints));
}
BENCHMARK(BM_PatternCut_Scalar);

void BM_PatternCut_Fused(benchmark::State& state) {
  const array::Ula ula{64, 0.5};
  const CVec w = array::single_beam_weights(ula, 0.0);
  constexpr std::size_t kPoints = 181;
  for (auto _ : state) {
    array::PatternCut cut = array::pattern_cut(
        ula, w, deg_to_rad(-60.0), deg_to_rad(60.0), kPoints);
    benchmark::DoNotOptimize(cut.gain_db.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPoints));
}
BENCHMARK(BM_PatternCut_Fused);

// ---------------------------------------------------------------------------
// Per-backend kernel benchmarks (PR-6 dispatch layer). One registration
// per compiled-and-executable backend, named BM_Kernel<Name>/<backend>,
// so the backend speedup is the items_per_second ratio between rows of
// the same kernel in --benchmark_format=json output (scalar is the
// "before": it is the bit-exact PR-2 reference the goldens run on).
// Each kernel runs at two sizes: 64 (the production CSI row / ULA weight
// length, where per-call dispatch overhead is part of the honest cost)
// and 512 (wideband grids, where the loop dominates). The two steering
// ramp kernels also run at 8, the registry scenarios' ULA size, a short
// ramp on every backend.
// ---------------------------------------------------------------------------

constexpr std::size_t kKernelReps = 64;  // amortize the dispatch load

void BM_KernelPhasorRamp(benchmark::State& state, dsp::Backend backend) {
  dsp::ScopedBackend scoped(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  CVec dst(n);
  for (auto _ : state) {
    for (std::size_t r = 0; r < kKernelReps; ++r) {
      dsp::phasor_ramp(0.0123 + 1e-6 * static_cast<double>(r), n,
                       dst.data());
      benchmark::DoNotOptimize(dst.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelReps * n));
}

void BM_KernelDotPhasorRamp(benchmark::State& state, dsp::Backend backend) {
  dsp::ScopedBackend scoped(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(13);
  CVec w(n);
  for (auto& c : w) c = rng.complex_normal();
  for (auto _ : state) {
    for (std::size_t r = 0; r < kKernelReps; ++r) {
      cplx d = dsp::dot_phasor_ramp(0.0123 + 1e-6 * static_cast<double>(r),
                                    w.data(), n);
      benchmark::DoNotOptimize(d);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelReps * n));
}

void BM_KernelAxpy(benchmark::State& state, dsp::Backend backend) {
  dsp::ScopedBackend scoped(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  CVec x(n), y(n);
  for (auto& c : x) c = rng.complex_normal();
  for (auto& c : y) c = rng.complex_normal();
  const cplx alpha{0.8, -0.3};
  for (auto _ : state) {
    for (std::size_t r = 0; r < kKernelReps; ++r) {
      dsp::axpy(alpha, x.data(), y.data(), n);
      benchmark::DoNotOptimize(y.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelReps * n));
}

void BM_KernelDelayPhasors(benchmark::State& state, dsp::Backend backend) {
  dsp::ScopedBackend scoped(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const channel::WidebandSpec spec{28e9, 400e6, n};
  RVec freqs(n);
  channel::fill_freq_grid(spec, freqs.data());
  const dsp::PhasorGrid grid = dsp::make_phasor_grid(freqs.data(), n);
  CVec ph(n);
  CVec dst(n, cplx{});
  const cplx alpha{3e-5, -1e-5};
  // One path's share of a CSI synthesis: form the delay phasors, then
  // fold them in.
  for (auto _ : state) {
    for (std::size_t r = 0; r < kKernelReps; ++r) {
      dsp::delay_phasors(grid, 1.5e-9 + 1e-13 * static_cast<double>(r),
                         ph.data());
      dsp::accumulate_phasors(alpha, grid, ph.data(), dst.data());
      benchmark::DoNotOptimize(dst.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelReps * n));
}

// The probe impairments' transcendentals over one CSI probe's worth of
// arguments: Box-Muller u1 values for log, angles in [0, 2 pi) for
// sincos.
void BM_KernelLog(benchmark::State& state, dsp::Backend backend) {
  dsp::ScopedBackend scoped(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(19);
  RVec x(n), y(n);
  for (double& v : x) v = std::max(rng.uniform(), 0x1.0p-53);
  for (auto _ : state) {
    for (std::size_t r = 0; r < kKernelReps; ++r) {
      dsp::log(x.data(), y.data(), n);
      benchmark::DoNotOptimize(y.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelReps * n));
}

void BM_KernelSincos(benchmark::State& state, dsp::Backend backend) {
  dsp::ScopedBackend scoped(backend);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(23);
  RVec x(n), s(n), c(n);
  for (double& v : x) v = 2.0 * kPi * rng.uniform();
  for (auto _ : state) {
    for (std::size_t r = 0; r < kKernelReps; ++r) {
      dsp::sincos(x.data(), s.data(), c.data(), n);
      benchmark::DoNotOptimize(s.data());
      benchmark::DoNotOptimize(c.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelReps * n));
}

/// Register BM_Kernel*/<backend> for every backend this machine can
/// actually execute (registration-time check: ScopedBackend inside the
/// benchmark cannot signal skip cleanly, so unsupported backends simply
/// get no row).
void register_backend_benchmarks() {
  using BenchFn = void (*)(benchmark::State&, dsp::Backend);
  static const struct {
    const char* name;
    BenchFn fn;
    std::vector<std::int64_t> sizes;
  } kKernelBenches[] = {
      {"BM_KernelPhasorRamp", &BM_KernelPhasorRamp, {8, 64, 512}},
      {"BM_KernelDotPhasorRamp", &BM_KernelDotPhasorRamp, {8, 64, 512}},
      {"BM_KernelAxpy", &BM_KernelAxpy, {64, 512}},
      {"BM_KernelDelayPhasors", &BM_KernelDelayPhasors, {64, 512}},
      {"BM_KernelLog", &BM_KernelLog, {64, 512}},
      {"BM_KernelSincos", &BM_KernelSincos, {64, 512}},
  };
  for (const auto& bench : kKernelBenches) {
    for (dsp::Backend b : dsp::compiled_backends()) {
      if (!dsp::backend_supported(b)) continue;
      const std::string name = std::string(bench.name) + "/" +
                               std::string(dsp::backend_name(b));
      auto* registered =
          benchmark::RegisterBenchmark(name.c_str(), bench.fn, b);
      for (const std::int64_t n : bench.sizes) registered->Arg(n);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_backend_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  // End-to-end sanity probe: the algorithm kernels above are what the
  // maintenance loop spends its time in; this times two short trials of
  // the full loop through the experiment engine.
  std::printf("\n=== full-loop probe through the experiment engine ===\n");
  sim::ExperimentSpec spec;
  spec.name = "micro_runtime_engine_probe";
  spec.scenario.name = "indoor";
  spec.controller.name = "mmreliable";
  spec.run.duration_s = 0.1;
  spec.trials = 2;
  spec.seed = 3;
  sim::JsonLinesSink sink(std::cout);
  sim::Engine().run(spec, &sink);
  return 0;
}
