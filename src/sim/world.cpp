#include "sim/world.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/error.h"
#include "dsp/kernels.h"
#include "sim/workspace.h"

namespace mmr::sim {
namespace {

/// Source of the tick ids that key the workspace's path-response table:
/// process-wide, so no two ticks of any worlds share one -- not even a
/// world rebuilt at a recycled address. 0 is never issued.
std::atomic<std::uint64_t> g_next_tick{1};

/// Bitwise equality of two weight vectors: a -0.0 lane or another NaN
/// payload makes them differ.
bool same_bits(const CVec& a, const CVec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0);
}

phy::EstimatorConfig make_estimator_config(const WorldConfig& config) {
  phy::EstimatorConfig est;
  est.noise_gain_0db = phy::noise_reference(config.budget);
  est.pilot_averaging_gain = config.pilot_averaging_gain;
  est.random_cfo_phase = true;
  est.sfo_slope_std_rad = config.sfo_slope_std_rad;
  return est;
}

}  // namespace

LinkWorld::LinkWorld(channel::Environment env, channel::Pose tx_pose,
                     std::shared_ptr<const channel::Trajectory> ue_trajectory,
                     WorldConfig config, Rng rng)
    : env_(std::move(env)), tx_pose_(tx_pose),
      tx_images_(env_.tx_images(tx_pose_)),
      ue_trajectory_(std::move(ue_trajectory)), config_(config), rng_(rng),
      estimator_(make_estimator_config(config), rng_.fork()) {
  MMR_EXPECTS(ue_trajectory_ != nullptr);
  probe_.weights.reserve(config_.tx_ula.num_elements);
  set_time(0.0);
}

void LinkWorld::add_blocker(channel::GeometricBlocker blocker) {
  blockers_.push_back(std::move(blocker));
  set_time(t_s_);
}

void LinkWorld::add_irs(channel::IrsPanel panel) {
  irs_panels_.push_back(panel);
  set_time(t_s_);
}

void LinkWorld::set_time(double t_s) {
  t_s_ = t_s;
  tick_ = g_next_tick.fetch_add(1, std::memory_order_relaxed);
  const channel::Pose ue = ue_trajectory_->at(t_s);
  env_.trace_into(paths_, tx_pose_, tx_images_, ue);
  for (const auto& panel : irs_panels_) {
    channel::Path p = channel::irs_path(panel, tx_pose_, ue,
                                        env_.carrier_hz());
    if (std::norm(p.gain) > 0.0) paths_.push_back(std::move(p));
  }

  // Geometric blockers: test each path ray against each blocker body.
  for (channel::Path& p : paths_) {
    double atten = 0.0;
    const channel::Vec2* refl = p.is_los ? nullptr : &p.reflection_point;
    for (const auto& blocker : blockers_) {
      atten +=
          blocker.attenuation_db(t_s, tx_pose_.position, ue.position, refl);
    }
    p.blockage_db = atten;
  }
}

core::LinkProbeInterface LinkWorld::probe_interface() {
  core::LinkProbeInterface link;
  link.csi = [this](const CVec& weights) -> CVec {
    if (paths_.empty()) return noise_csi();
    std::optional<TrialWorkspace> local;
    CVec csi(config_.spec.num_subcarriers);
    response(scratch(local), true).csi(weights, config_.rx, csi.data());
    probe_.tick = tick_;
    probe_.weights.assign(weights.begin(), weights.end());
    probe_.power = channel::mean_power(csi.data(), csi.size());
    return estimator_.estimate(std::move(csi));
  };
  link.cir = [this](const CVec& weights, std::size_t num_taps) -> CVec {
    CVec cir(num_taps, cplx{});
    if (!paths_.empty()) synthesize_cir(weights, cir);
    impair_cir(cir);
    return cir;
  };
  return link;
}

CVec LinkWorld::noise_csi() {
  // Fully occluded: the estimate is pure noise.
  CVec noise(config_.spec.num_subcarriers);
  const double var =
      phy::noise_reference(config_.budget) / config_.pilot_averaging_gain;
  rng_.complex_normals(noise.data(), noise.size(), var, dsp::normal_math());
  return noise;
}

void LinkWorld::synthesize_cir(const CVec& tx_weights, CVec& cir) {
  const double jitter = rng_.normal(0.0, config_.timing_jitter_std_s);
  std::optional<TrialWorkspace> local;
  TrialWorkspace& ws = scratch(local);
  ws.pulse.resize(cir.size());
  response(ws, false).cir(tx_weights, config_.rx, config_.spec, cir.size(),
                          std::abs(jitter), cir.data(), ws.pulse.data());
}

void LinkWorld::impair_cir(CVec& cir) {
  const double var = phy::noise_reference(config_.budget) /
                     config_.pilot_averaging_gain /
                     static_cast<double>(config_.spec.num_subcarriers);
  // CFO: a common rotation leaves |taps| intact but keeps controllers
  // honest about not relying on absolute phase.
  const cplx rot = std::polar(1.0, rng_.uniform(0.0, 2.0 * 3.14159265358979));
  // AWGN per tap, drawn a chunk at a time in per-tap order.
  const NormalMath math = dsp::normal_math();
  constexpr std::size_t kChunk = 64;
  cplx noise[kChunk];
  for (std::size_t k0 = 0; k0 < cir.size(); k0 += kChunk) {
    const std::size_t m = std::min(kChunk, cir.size() - k0);
    rng_.complex_normals(noise, m, var, math);
    for (std::size_t i = 0; i < m; ++i) {
      cplx& c = cir[k0 + i];
      c = c * rot + noise[i];
    }
  }
}

TrialWorkspace& LinkWorld::scratch(
    std::optional<TrialWorkspace>& local) const {
  return ws_ != nullptr ? *ws_ : local.emplace();
}

const channel::PathResponse& LinkWorld::response(TrialWorkspace& ws,
                                                 bool delays) const {
  if (ws.response_tick != tick_) {
    ws.response.fill(paths_, config_.tx_ula);
    ws.response_tick = tick_;
  }
  if (delays && !ws.response.has_delays()) {
    ws.response.fill_delays(ws.grid(config_.spec));
  }
  return ws.response;
}

double LinkWorld::true_power(const CVec& tx_weights) const {
  if (paths_.empty()) return 0.0;
  if (probe_.tick == tick_ && same_bits(probe_.weights, tx_weights)) {
    return probe_.power;
  }
  std::optional<TrialWorkspace> local;
  TrialWorkspace& ws = scratch(local);
  ws.csi.resize(config_.spec.num_subcarriers);
  return response(ws, true).received_power(tx_weights, config_.rx,
                                           ws.csi.data());
}

double LinkWorld::true_snr_db(const CVec& tx_weights) const {
  return snr_db_for_power(true_power(tx_weights));
}

double LinkWorld::snr_db_for_power(double power) const {
  if (power <= 0.0) return -300.0;
  return config_.budget.snr_db(power);
}

CVec LinkWorld::true_per_antenna_channel() const {
  if (paths_.empty()) return CVec(config_.tx_ula.num_elements, cplx{1e-15, 0});
  std::optional<TrialWorkspace> local;
  CVec h(config_.tx_ula.num_elements);
  response(scratch(local), false).per_antenna(config_.rx, h.data());
  return h;
}

double LinkWorld::power_for_snr(double snr_db) const {
  return config_.budget.gain_for_snr(snr_db);
}

}  // namespace mmr::sim
