// Fig. 19 / Appendix B reproduction: does multi-beam help at 60 GHz like
// it does at 28 GHz? 10 m link with a concrete reflector at ~60 degrees,
// 10% blockage duty cycle on the LOS. Paper: multi-beam beats the
// single-beam baseline by ~1.18x throughput at BOTH carriers, and 28 GHz
// carries ~4.7x more throughput than 60 GHz at the same bandwidth because
// of the extra path loss and oxygen absorption.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "channel/environment.h"
#include "channel/wideband.h"
#include "common/angles.h"
#include "common/constants.h"
#include "common/table.h"
#include "common/units.h"
#include "core/multibeam.h"
#include "phy/link_budget.h"
#include "phy/mcs.h"
#include "sweep_cli.h"

using namespace mmr;

namespace {

struct CarrierResult {
  double tput_single = 0.0;
  double tput_multi = 0.0;
};

CarrierResult evaluate(double carrier_hz, const channel::Material& material,
                       double wall_offset_m) {
  // 10 m link; reflecting wall placed to the side (Appendix B, Fig. 19a
  // uses concrete near 60 degrees; we also report a stronger glass
  // reflector to show the gain's sensitivity to reflector strength).
  channel::Environment env(carrier_hz);
  env.add_wall({{{-5.0, wall_offset_m}, {15.0, wall_offset_m}}, material});
  const channel::Pose tx{{0.0, 0.0}, 0.0};
  const channel::Pose ue{{10.0, 0.0}, kPi};
  auto paths = env.trace(tx, ue);

  const array::Ula ula{8, 0.5};
  const channel::WidebandSpec spec{carrier_hz, 400e6, 64};
  phy::LinkBudget budget;
  budget.tx_power_dbm = 24.0;
  budget.bandwidth_hz = 400e6;
  const phy::McsTable& mcs = phy::McsTable::nr();
  const auto rx = channel::RxFrontend::omni();

  const double a0 = paths[0].aod_rad;
  const double a1 = paths.size() > 1 ? paths[1].aod_rad : a0;
  const double delta =
      paths.size() > 1
          ? std::sqrt(paths[1].effective_power() / paths[0].effective_power())
          : 0.0;
  const double sigma = paths.size() > 1
                           ? std::arg(paths[1].gain / paths[0].gain)
                           : 0.0;

  const auto single = core::synthesize_multibeam(ula, {{a0, cplx{1.0, 0.0}}});
  const auto multi = core::synthesize_multibeam(
      ula, core::constructive_components({a0, a1},
                                         {cplx{1.0, 0.0},
                                          std::polar(delta, sigma)}));

  // 10% blockage duty cycle on the LOS (26 dB deep). The multi-beam
  // system reacts to blockage by reallocating all power onto the
  // surviving beam (Section 4.1); the single-beam system has no reaction
  // in this figure.
  const auto refl_only = core::synthesize_multibeam(
      ula, {{a1, cplx{1.0, 0.0}}});
  CarrierResult result;
  for (int blocked = 0; blocked < 2; ++blocked) {
    auto p = paths;
    p[0].blockage_db = blocked ? 26.0 : 0.0;
    const double weight = blocked ? 0.1 : 0.9;
    const CVec& multi_w = blocked ? refl_only.weights : multi.weights;
    const double snr_single =
        budget.snr_db(channel::received_power(p, ula, single.weights, spec, rx));
    const double snr_multi =
        budget.snr_db(channel::received_power(p, ula, multi_w, spec, rx));
    result.tput_single += weight * mcs.throughput_bps(snr_single, 400e6);
    result.tput_multi += weight * mcs.throughput_bps(snr_multi, 400e6);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts =
      bench::parse_sweep_cli(argc, argv, bench::refuse_controller_flag,
                             nullptr);
  std::printf("=== Fig. 19: multi-beam gain at 28 GHz vs 60 GHz ===\n");
  std::printf("(10 m link, side reflector, 10%% LOS blockage)\n\n");
  Table t({"carrier", "reflector", "single-beam (Mbps)", "multi-beam (Mbps)",
           "multi/single gain"});
  struct Case {
    const char* name;
    channel::Material material;
    double offset;
  };
  // Case c (concrete, glass) at carrier k (28, 60 GHz).
  double gain[2][2] = {}, multi[2][2] = {};
  const Case cases[] = {
      {"concrete @ ~60 deg", channel::Material::concrete(), 4.2},
      {"glass @ ~35 deg", channel::Material::glass(), 3.5}};
  for (std::size_t c = 0; c < 2; ++c) {
    const CarrierResult r[2] = {
        evaluate(kCarrier28GHz, cases[c].material, cases[c].offset),
        evaluate(kCarrier60GHz, cases[c].material, cases[c].offset)};
    for (std::size_t k = 0; k < 2; ++k) {
      gain[c][k] = r[k].tput_multi / r[k].tput_single;
      multi[c][k] = r[k].tput_multi;
      t.add_row({k == 0 ? "28 GHz" : "60 GHz", cases[c].name,
                 Table::num(r[k].tput_single / 1e6, 0),
                 Table::num(r[k].tput_multi / 1e6, 0),
                 Table::num(gain[c][k], 2) + "x"});
    }
  }
  t.print(std::cout);
  const double ratio = multi[1][0] / multi[1][1];

  std::printf("\n28 GHz / 60 GHz multi-beam throughput ratio (glass case): "
              "%.2fx (paper: ~4.7x at equal bandwidth)\n", ratio);
  // The paper's shape, part by part, each stated only when the table
  // above bears it out: a multi-beam gain of ~1.18x (here: within 0.05)
  // in every row at both carriers, and a 28 GHz link carrying several
  // times (here: at least 3x) the 60 GHz throughput. The bench's own
  // reading, a gain that tracks reflector strength (Eq. 9's 1 + delta^2),
  // needs the stronger glass reflector's gain above concrete's at both.
  bool near_paper_gain = true, tracks_reflector = true;
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t c = 0; c < 2; ++c) {
      near_paper_gain = near_paper_gain && std::abs(gain[c][k] - 1.18) <= 0.05;
    }
    tracks_reflector = tracks_reflector && gain[1][k] > gain[0][k];
  }
  std::printf("multi-beam gain: 28 GHz %.2fx (concrete) / %.2fx (glass), "
              "60 GHz %.2fx / %.2fx\n",
              gain[0][0], gain[1][0], gain[0][1], gain[1][1]);
  const auto verdict = [](bool holds, const char* shape) {
    if (holds) {
      std::printf("paper shape: %s.\n", shape);
    } else {
      std::printf("paper shape (%s): not reproduced; see EXPERIMENTS.md "
                  "note 6.\n", shape);
    }
  };
  verdict(near_paper_gain, "multi-beam gains ~1.18x at both carriers");
  verdict(ratio >= 3.0,
          "the 28 GHz link carries several times more throughput");
  if (tracks_reflector) {
    std::printf("the gain tracks reflector strength (Eq. 9's 1 + delta^2): "
                "glass above concrete at both carriers.\n");
  } else {
    std::printf("the gain does not track reflector strength here: glass is "
                "not above concrete at both carriers.\n");
  }

  std::printf("\n=== closed-loop check on the outdoor street (engine) ===\n");
  {
    // The tables above are single-shot link budgets; this runs the
    // registered outdoor scenario end-to-end with the multi-beam and
    // reactive controllers, a pedestrian crossing the LOS mid-run (as a
    // Fig. 18 blocker does), for a dynamics-aware comparison.
    const std::vector<std::string> ctrls = {"mmreliable", "reactive"};
    sim::ExperimentSpec spec;
    spec.name = "fig19_outdoor_check";
    spec.scenario.name = "outdoor";
    spec.scenario.config.seed = 19;
    spec.scenario.blockers.push_back({0.5, 1.5, 30.0});
    spec.run.duration_s = 1.0;
    spec.trials = ctrls.size();
    spec.seed = 19;
    spec.seed_policy = sim::SeedPolicy::kFixed;
    spec.customize = [&ctrls](const sim::TrialContext& ctx,
                              sim::ScenarioSpec& /*scenario*/,
                              sim::ControllerSpec& controller,
                              sim::RunConfig& /*run*/) {
      controller.name = ctrls[ctx.index];
    };
    spec.label = [&ctrls](const sim::TrialContext& ctx) {
      return ctrls[ctx.index];
    };
    const auto res = bench::run_campaign(spec, opts);
    if (bench::distributed_mode(opts)) {
      bench::emit_distributed(opts, spec.name, res);
      bench::emit_json(spec.name, res);
      return 0;
    }
    for (std::size_t i = 0; i < ctrls.size(); ++i) {
      std::printf("%12s: reliability %.3f, mean throughput %.0f Mbps\n",
                  ctrls[i].c_str(), res.trials[i].value.reliability,
                  res.trials[i].value.mean_throughput_bps / 1e6);
    }
    bench::emit_json(spec.name, res);
  }
  return 0;
}
