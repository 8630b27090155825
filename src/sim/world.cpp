#include "sim/world.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "common/error.h"
#include "sim/workspace.h"

namespace mmr::sim {
namespace {

// Shared between the plain and workspace-scratch order containers (the
// latter is a pmr vector): identical iota + sort, so the event process
// addresses the same stable ranks either way.
template <typename IndexVec>
void fill_stable_order(const std::vector<channel::Path>& paths,
                       IndexVec& order) {
  order.resize(paths.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (paths[a].is_los != paths[b].is_los) return paths[a].is_los;
    return std::norm(paths[a].gain) > std::norm(paths[b].gain);
  });
}

/// Source of the tick ids that key the workspace's path-response table:
/// process-wide, so no two ticks of any worlds share one -- not even a
/// world rebuilt at a recycled address. 0 is never issued.
std::atomic<std::uint64_t> g_next_tick{1};

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
      ue_trajectory_(std::move(ue_trajectory)), config_(config), rng_(rng),
      estimator_(make_estimator_config(config), rng_.fork()) {
  MMR_EXPECTS(ue_trajectory_ != nullptr);
  set_time(0.0);
}

void LinkWorld::add_blocker(channel::GeometricBlocker blocker) {
  blockers_.push_back(std::move(blocker));
  set_time(t_s_);
}

void LinkWorld::set_event_process(channel::BlockageEventProcess process) {
  events_ = std::make_unique<channel::BlockageEventProcess>(std::move(process));
  set_time(t_s_);
}

std::vector<std::size_t> LinkWorld::stable_order() const {
  std::vector<std::size_t> order;
  fill_stable_order(paths_, order);
  return order;
}

void LinkWorld::add_irs(channel::IrsPanel panel) {
  irs_panels_.push_back(panel);
  set_time(t_s_);
}

struct LinkWorld::LocalResponse {
  RVec freqs;
  channel::PathResponse table;
};

void LinkWorld::set_time(double t_s) {
  t_s_ = t_s;
  tick_ = g_next_tick.fetch_add(1, std::memory_order_relaxed);
  const channel::Pose ue = ue_trajectory_->at(t_s);
  env_.trace_into(paths_, tx_pose_, ue);
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

  // Stochastic event process: addressed by stable path index. With a
  // bound workspace the index scratch lives on the trial arena.
  if (events_ != nullptr && !paths_.empty()) {
    if (ws_ != nullptr) {
      auto& order = ws_->order();
      fill_stable_order(paths_, order);
      for (std::size_t rank = 0; rank < order.size(); ++rank) {
        paths_[order[rank]].blockage_db += events_->attenuation_db(t_s, rank);
      }
    } else {
      const std::vector<std::size_t> order = stable_order();
      for (std::size_t rank = 0; rank < order.size(); ++rank) {
        paths_[order[rank]].blockage_db += events_->attenuation_db(t_s, rank);
      }
    }
  }
}

core::LinkProbeInterface LinkWorld::probe_interface() {
  core::LinkProbeInterface link;
  link.csi = [this](const CVec& weights) -> CVec {
    if (paths_.empty()) {
      // Fully occluded: the estimate is pure noise.
      CVec noise(config_.spec.num_subcarriers);
      const double var = phy::noise_reference(config_.budget) /
                         config_.pilot_averaging_gain;
      for (cplx& c : noise) c = rng_.complex_normal(var);
      return noise;
    }
    std::optional<LocalResponse> local;
    CVec truth(config_.spec.num_subcarriers);
    response(local, true).csi(weights, config_.rx, truth.data());
    return estimator_.estimate(truth);
  };
  link.cir = [this](const CVec& weights, std::size_t num_taps) -> CVec {
    const double var = phy::noise_reference(config_.budget) /
                       config_.pilot_averaging_gain /
                       static_cast<double>(config_.spec.num_subcarriers);
    CVec cir(num_taps, cplx{});
    if (!paths_.empty()) {
      const double jitter = rng_.normal(0.0, config_.timing_jitter_std_s);
      std::optional<LocalResponse> local;
      response(local, false).cir(weights, config_.rx, config_.spec, num_taps,
                                 std::abs(jitter), cir.data());
    }
    // CFO: a common rotation leaves |taps| intact but keeps controllers
    // honest about not relying on absolute phase.
    const cplx rot = std::polar(1.0, rng_.uniform(0.0, 2.0 * 3.14159265358979));
    for (cplx& c : cir) c = c * rot + rng_.complex_normal(var);
    return cir;
  };
  return link;
}

LinkWorld::JointProbe LinkWorld::joint_probe_interface() {
  JointProbe jp;
  jp.csi = [this](const CVec& tx_w, const CVec& rx_w) -> CVec {
    if (paths_.empty()) {
      CVec noise(config_.spec.num_subcarriers);
      const double var = phy::noise_reference(config_.budget) /
                         config_.pilot_averaging_gain;
      for (cplx& c : noise) c = rng_.complex_normal(var);
      return noise;
    }
    const auto rx = channel::RxFrontend::beam(config_.ue_ula, rx_w);
    std::optional<LocalResponse> local;
    CVec truth(config_.spec.num_subcarriers);
    response(local, true).csi(tx_w, rx, truth.data());
    return estimator_.estimate(truth);
  };
  jp.cir = [this](const CVec& tx_w, const CVec& rx_w,
                  std::size_t num_taps) -> CVec {
    const double var = phy::noise_reference(config_.budget) /
                       config_.pilot_averaging_gain /
                       static_cast<double>(config_.spec.num_subcarriers);
    CVec cir(num_taps, cplx{});
    if (!paths_.empty()) {
      const auto rx = channel::RxFrontend::beam(config_.ue_ula, rx_w);
      const double jitter = rng_.normal(0.0, config_.timing_jitter_std_s);
      std::optional<LocalResponse> local;
      response(local, false).cir(tx_w, rx, config_.spec, num_taps,
                                 std::abs(jitter), cir.data());
    }
    const cplx rot = std::polar(1.0, rng_.uniform(0.0, 2.0 * 3.14159265358979));
    for (cplx& c : cir) c = c * rot + rng_.complex_normal(var);
    return cir;
  };
  return jp;
}

const channel::PathResponse& LinkWorld::response(
    std::optional<LocalResponse>& local, bool delays) const {
  if (ws_ == nullptr) {
    LocalResponse& l = local.emplace();
    l.table.fill(paths_, config_.tx_ula);
    if (delays) {
      l.freqs.resize(config_.spec.num_subcarriers);
      channel::fill_freq_grid(config_.spec, l.freqs.data());
      l.table.fill_delays(
          dsp::make_phasor_grid(l.freqs.data(), l.freqs.size()));
    }
    return l.table;
  }
  channel::PathResponse& table = ws_->response();
  if (ws_->response_tick() != tick_) {
    table.fill(paths_, config_.tx_ula);
    ws_->set_response_tick(tick_);
  }
  if (delays && !table.has_delays()) {
    table.fill_delays(ws_->grid(config_.spec));
  }
  return table;
}

double LinkWorld::received_power(const CVec& tx_weights,
                                 const channel::RxFrontend& rx) const {
  std::optional<LocalResponse> local;
  const channel::PathResponse& table = response(local, true);
  const std::size_t n = config_.spec.num_subcarriers;
  if (ws_ != nullptr) {
    auto& csi = ws_->csi();
    csi.resize(n);
    return table.received_power(tx_weights, rx, csi.data());
  }
  CVec csi(n);
  return table.received_power(tx_weights, rx, csi.data());
}

double LinkWorld::true_snr_db_joint(const CVec& tx_w, const CVec& rx_w) const {
  if (paths_.empty()) return -300.0;
  const double power =
      received_power(tx_w, channel::RxFrontend::beam(config_.ue_ula, rx_w));
  if (power <= 0.0) return -300.0;
  return config_.budget.snr_db(power);
}

double LinkWorld::true_power(const CVec& tx_weights) const {
  if (paths_.empty()) return 0.0;
  return received_power(tx_weights, config_.rx);
}

double LinkWorld::true_snr_db(const CVec& tx_weights) const {
  const double power = true_power(tx_weights);
  if (power <= 0.0) return -300.0;
  return config_.budget.snr_db(power);
}

CVec LinkWorld::true_per_antenna_channel() const {
  if (paths_.empty()) return CVec(config_.tx_ula.num_elements, cplx{1e-15, 0});
  return channel::per_antenna_channel(paths_, config_.tx_ula, config_.rx);
}

double LinkWorld::power_for_snr(double snr_db) const {
  return config_.budget.gain_for_snr(snr_db);
}

}  // namespace mmr::sim
