// Per-trial scratch bundle: one Arena plus the pmr containers the
// LinkWorld hot path (set_time, probes, true_snr_db) draws from, including
// the per-tick path-response table. The engine creates one TrialWorkspace
// per trial, binds it to the trial's world (LinkWorld::bind_workspace),
// and reset()s it between retry attempts -- so a steady-state trial
// performs zero heap allocations in its scoring loop (proven by
// tests/alloc/zero_alloc_test.cpp). Several worlds may share one
// workspace (a network's sessions): the table then holds whichever
// world's tick was evaluated last.
//
// Lifetime rules (see common/arena.h): the scratch containers live ON
// the arena, so reset() must destroy and reconstruct them -- their
// internal capacity pointers dangle the moment the arena rewinds. The
// std::optional dance below enforces that ordering. The workspace must
// outlive any world it is bound to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory_resource>
#include <optional>
#include <vector>

#include "channel/wideband.h"
#include "common/arena.h"
#include "common/types.h"
#include "dsp/kernels.h"

namespace mmr::sim {

class TrialWorkspace {
 public:
  TrialWorkspace() { scratch_.emplace(&arena_); }

  TrialWorkspace(const TrialWorkspace&) = delete;
  TrialWorkspace& operator=(const TrialWorkspace&) = delete;

  /// Rewind the arena and rebuild the scratch containers on it. An
  /// identical trial replayed after reset() reuses the identical chunk
  /// memory (Arena::reset keeps chunks) and produces bit-identical
  /// results (pinned by the props tier).
  void reset() {
    scratch_.reset();  // destroy containers BEFORE their storage rewinds
    arena_.reset();
    scratch_.emplace(&arena_);
  }

  Arena& arena() { return arena_; }

  /// Subcarrier grid of `spec`, with its affine check: built on first use
  /// and rebuilt whenever (num_subcarriers, bandwidth_hz) -- everything
  /// WidebandSpec::freq_offset reads -- differs from the cached one.
  const dsp::PhasorGrid& grid(const channel::WidebandSpec& spec) {
    Scratch& s = *scratch_;
    if (s.freqs.size() != spec.num_subcarriers ||
        s.grid_bandwidth_hz != spec.bandwidth_hz) {
      s.freqs.resize(spec.num_subcarriers);
      channel::fill_freq_grid(spec, s.freqs.data());
      s.grid_bandwidth_hz = spec.bandwidth_hz;
      s.grid = dsp::make_phasor_grid(s.freqs.data(), s.freqs.size());
    }
    return s.grid;
  }
  /// CSI scratch for the power score (overwritten every call).
  std::pmr::vector<cplx>& csi() { return scratch_->csi; }
  /// Stable-order index scratch for the blockage event process.
  std::pmr::vector<std::size_t>& order() { return scratch_->order; }

  /// The per-tick path-response table (LinkWorld's; see
  /// LinkWorld::bind_workspace) and the tick id it was filled for. Id 0
  /// is never issued, so a fresh or reset() workspace holds no table.
  channel::PathResponse& response() { return scratch_->response; }
  std::uint64_t response_tick() const { return scratch_->response_tick; }
  void set_response_tick(std::uint64_t tick) {
    scratch_->response_tick = tick;
  }

 private:
  struct Scratch {
    explicit Scratch(std::pmr::memory_resource* mr)
        : freqs(mr), csi(mr), order(mr), response(mr) {}
    std::pmr::vector<double> freqs;
    double grid_bandwidth_hz = 0.0;
    dsp::PhasorGrid grid;
    std::pmr::vector<cplx> csi;
    std::pmr::vector<std::size_t> order;
    channel::PathResponse response;
    std::uint64_t response_tick = 0;
  };

  Arena arena_;
  std::optional<Scratch> scratch_;
};

}  // namespace mmr::sim
