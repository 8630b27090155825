// Per-trial scratch for the LinkWorld hot path (probes, true_snr_db,
// the oracle channel): the subcarrier grid, the CSI / CIR-pulse scratch and
// the per-tick path-response table, all plain vectors that
// keep their capacity from one use to the next. The engine creates one
// TrialWorkspace per trial and binds it to the trial's world
// (LinkWorld::bind_workspace), so a steady-state trial performs zero
// heap allocations in its scoring loop (proven by
// tests/alloc/zero_alloc_test.cpp). Several worlds may share one
// workspace (a network's sessions, or a retried trial's successive
// worlds): the table then holds whichever world's tick was evaluated
// last, and its tick id keeps every other world from reading it. The
// workspace must outlive any world it is bound to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "channel/wideband.h"
#include "common/types.h"
#include "dsp/kernels.h"

namespace mmr::sim {

class TrialWorkspace {
 public:
  TrialWorkspace() = default;

  TrialWorkspace(const TrialWorkspace&) = delete;
  TrialWorkspace& operator=(const TrialWorkspace&) = delete;

  /// Subcarrier grid of `spec`, with its affine check: built on first use
  /// and rebuilt whenever (num_subcarriers, bandwidth_hz) -- everything
  /// WidebandSpec::freq_offset reads -- differs from the cached one.
  const dsp::PhasorGrid& grid(const channel::WidebandSpec& spec) {
    if (freqs_.size() != spec.num_subcarriers ||
        grid_bandwidth_hz_ != spec.bandwidth_hz) {
      freqs_.resize(spec.num_subcarriers);
      channel::fill_freq_grid(spec, freqs_.data());
      grid_bandwidth_hz_ = spec.bandwidth_hz;
      grid_ = dsp::make_phasor_grid(freqs_.data(), freqs_.size());
    }
    return grid_;
  }

  /// CSI scratch for the power score (overwritten every call).
  CVec csi;
  /// Sampled-pulse scratch for CIR synthesis (overwritten every call).
  RVec pulse;
  /// The per-tick path-response table (see LinkWorld::bind_workspace) and
  /// the tick id it was filled for. Id 0 is never issued, so a fresh
  /// workspace holds no table.
  channel::PathResponse response;
  std::uint64_t response_tick = 0;

 private:
  RVec freqs_;
  double grid_bandwidth_hz_ = 0.0;
  dsp::PhasorGrid grid_;
};

}  // namespace mmr::sim
