// Fig. 17 reproduction: proactive tracking.
//  (a) per-beam power vs array rotation follows the beam pattern, for the
//      LOS and the NLOS beam (superres output vs ground truth).
//  (b) rotation-angle estimation accuracy over 2-8 degrees (paper: ~1 deg
//      mean error for both LOS and NLOS beams).
//  (c) throughput time series under 1.5 m/s translation: no tracking vs
//      tracking-only vs tracking + constructive combining (paper: ~600
//      Mbps maintained with tracking+CC; collapse without tracking;
//      ~100 Mbps penalty without CC).
#include <cstdio>
#include <iostream>

#include "array/pattern.h"
#include "common/angles.h"
#include "common/rng.h"
#include "common/streaming_stats.h"
#include "common/table.h"
#include "common/units.h"
#include "core/maintenance.h"
#include "core/superres.h"
#include "core/tracking.h"
#include "phy/estimator.h"
#include "sim/runner.h"
#include "sim/scenario.h"
#include "sim/sweep.h"
#include "sweep_cli.h"

using namespace mmr;

namespace {

// Rotate the gNB array: every path's AoD shifts by -rot.
std::vector<channel::Path> rotated(const std::vector<channel::Path>& paths,
                                   double rot_rad) {
  std::vector<channel::Path> out = paths;
  for (auto& p : out) p.aod_rad -= rot_rad;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_sweep_cli(argc, argv);
  sim::ScenarioConfig cfg;
  cfg.seed = opts.seed > 0 ? opts.seed : 11;
  // Controlled 2-path channel for the tracking micro-benchmarks: the
  // paper rotates its array on a precision gantry against a LOS path and
  // one 30-degree reflection; angular separation and a few ns of excess
  // delay keep the per-beam observables clean.
  const array::Ula ula{8, 0.5};
  const channel::WidebandSpec spec{28e9, 400e6, 64};
  const auto rx = channel::RxFrontend::omni();
  std::vector<channel::Path> base_paths(2);
  base_paths[0].aod_rad = 0.0;
  base_paths[0].gain = cplx{1e-4, 0.0};
  base_paths[0].is_los = true;
  base_paths[1].aod_rad = deg_to_rad(32.0);
  base_paths[1].gain = std::polar(0.55e-4, 0.8);
  base_paths[1].delay_s = 5.0e-9;

  const double a0 = base_paths[0].aod_rad;
  const double a1 = base_paths[1].aod_rad;
  const auto mb = core::synthesize_multibeam(
      ula, {{a0, cplx{1.0, 0.0}}, {a1, cplx{0.55, 0.0}}});
  const RVec dict{0.0, base_paths[1].delay_s - base_paths[0].delay_s};

  std::printf("=== Fig. 17a: per-beam power vs rotation (superres vs "
              "pattern) ===\n");
  {
    Table t({"rotation (deg)", "beam0 meas (dB)", "beam0 pattern (dB)",
             "beam1 meas (dB)", "beam1 pattern (dB)"});
    RVec ref_p;
    for (double rot_deg = 0.0; rot_deg <= 8.01; rot_deg += 1.0) {
      const auto paths = rotated(base_paths, deg_to_rad(rot_deg));
      const CVec cir = channel::effective_cir(paths, ula, mb.weights, spec,
                                              24, rx);
      const auto fit = core::superres_per_beam(
          cir, dict, spec.sample_period(), spec.bandwidth_hz);
      const RVec p = fit.powers();
      if (rot_deg == 0.0) ref_p = p;
      const double pat0 = array::ula_relative_gain_db(
          ula.num_elements, ula.spacing_wavelengths, deg_to_rad(rot_deg));
      t.add_row({Table::num(rot_deg, 0),
                 Table::num(to_db(p[0] / ref_p[0]), 2), Table::num(pat0, 2),
                 Table::num(to_db(p[1] / ref_p[1]), 2), Table::num(pat0, 2)});
    }
    t.print(std::cout);
    std::printf("paper shape: measured per-beam power follows the array "
                "pattern within ~1 dB.\n");
  }

  std::printf("\n=== Fig. 17b: rotation angle estimation accuracy ===\n");
  {
    phy::EstimatorConfig ec;
    ec.noise_gain_0db = phy::noise_reference(phy::LinkBudget::paper_indoor());
    ec.pilot_averaging_gain = 20.0;
    Rng rng(3);
    Table t({"true rotation (deg)", "LOS est (deg)", "LOS err",
             "NLOS est (deg)", "NLOS err"});
    StreamingMoments err_los, err_nlos;
    for (double rot_deg = 2.0; rot_deg <= 8.01; rot_deg += 1.0) {
      const auto paths = rotated(base_paths, deg_to_rad(rot_deg));
      // Average a few noisy monitoring snapshots (the tracker's
      // smoothing).
      RVec mean_p(2, 0.0);
      RVec ref_p(2, 0.0);
      const int reps = 12;
      phy::ChannelEstimator est(ec, rng.fork());
      for (int rep = 0; rep < reps; ++rep) {
        for (int rotated_case = 0; rotated_case < 2; ++rotated_case) {
          const auto& pp = rotated_case ? paths : base_paths;
          CVec cir = channel::effective_cir(pp, ula, mb.weights, spec, 24, rx);
          const double nv = ec.noise_gain_0db / ec.pilot_averaging_gain / 64.0;
          for (auto& c : cir) c += rng.complex_normal(nv);
          const auto fit = core::superres_per_beam(
              cir, dict, spec.sample_period(), spec.bandwidth_hz);
          const RVec p = fit.powers();
          for (int k = 0; k < 2; ++k) {
            (rotated_case ? mean_p : ref_p)[k] += p[k] / reps;
          }
        }
      }
      const double drop0 = to_db(ref_p[0] / mean_p[0]);
      const double drop1 = to_db(ref_p[1] / mean_p[1]);
      const double est0 = rad_to_deg(core::invert_pattern_offset(
          ula.num_elements, ula.spacing_wavelengths, std::max(0.0, drop0)));
      const double est1 = rad_to_deg(core::invert_pattern_offset(
          ula.num_elements, ula.spacing_wavelengths, std::max(0.0, drop1)));
      err_los.add(std::abs(est0 - rot_deg));
      err_nlos.add(std::abs(est1 - rot_deg));
      t.add_row({Table::num(rot_deg, 0), Table::num(est0, 2),
                 Table::num(std::abs(est0 - rot_deg), 2),
                 Table::num(est1, 2),
                 Table::num(std::abs(est1 - rot_deg), 2)});
    }
    t.print(std::cout);
    std::printf("mean |error|: LOS %.2f deg, NLOS %.2f deg (paper: ~1 deg)\n",
                err_los.mean(), err_nlos.mean());
  }

  std::printf("\n=== Fig. 17c: throughput under 1.5 m/s translation ===\n");
  {
    struct Variant {
      const char* name;
      bool tracking;
      bool cc;
    };
    const std::vector<Variant> variants = {{"no tracking", false, false},
                                           {"tracking only", true, false},
                                           {"tracking + CC", true, true}};
    // One engine trial per ablation variant; all three share the fixed
    // scenario seed, so --jobs only changes wall-clock, never the table.
    sim::ExperimentSpec spec;
    spec.name = "fig17c_tracking_ablation";
    spec.scenario.name = "indoor";
    spec.scenario.config = cfg;
    spec.scenario.ue_velocity = {0.0, -1.5};
    spec.controller.name = "mmreliable_ablation";
    spec.trials = variants.size();
    spec.seed = cfg.seed;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.record_samples = true;
    spec.customize = [&variants](const sim::TrialContext& ctx,
                                 sim::ScenarioSpec& /*scenario*/,
                                 sim::ControllerSpec& controller,
                                 sim::RunConfig& /*run*/) {
      controller.enable_tracking = variants[ctx.index].tracking;
      controller.enable_cc_refresh = variants[ctx.index].cc;
    };
    spec.label = [&variants](const sim::TrialContext& ctx) {
      return std::string(variants[ctx.index].name);
    };
    const auto res = bench::run_campaign(spec, opts);
    if (bench::distributed_mode(opts)) {
      bench::emit_distributed(opts, spec.name, res);
      bench::emit_json(spec.name, res);
      return 0;
    }

    Table t({"scheme", "mean tput (Mbps)", "min tput (Mbps)",
             "end-of-run tput (Mbps)"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
      double min_tput = 1e18, end_tput = 0.0;
      for (const auto& s : res.samples[i]) {
        if (s.t_s > 0.1) min_tput = std::min(min_tput, s.throughput_bps);
        if (s.t_s > 0.9) end_tput = std::max(end_tput, s.throughput_bps);
      }
      t.add_row({variants[i].name,
                 Table::num(res.trials[i].value.mean_throughput_bps / 1e6, 0),
                 Table::num(min_tput / 1e6, 0),
                 Table::num(end_tput / 1e6, 0)});
    }
    t.print(std::cout);
    std::printf("paper shape: without tracking throughput collapses by the "
                "end of the run; tracking+CC holds it; dropping CC costs "
                "on the order of 100 Mbps.\n");

    bench::emit_json(spec.name, res);
  }
  return 0;
}
