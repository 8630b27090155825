// Link quality metrics (paper Section 3.1, Eq. 1 and the
// throughput-reliability product of Section 6.2 / Fig. 18c).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mmr::core {

/// One evaluation instant of a controlled link.
struct LinkSample {
  double t_s = 0.0;
  double snr_db = 0.0;
  double throughput_bps = 0.0;
  /// False while the link is consumed by (re)training and cannot carry
  /// data -- which counts against reliability (Section 3.1).
  bool available = true;
  /// False when the true received power is zero (no traced path reaches
  /// the UE): snr_db then holds the -300 dB "no signal" value, which an
  /// SNR statistic must not fold.
  bool has_signal = true;
};

struct LinkSummary {
  /// Fraction of time the link was available AND above the outage SNR.
  double reliability = 0.0;
  /// Mean throughput over ALL samples (zeros during outage/training).
  double mean_throughput_bps = 0.0;
  /// Mean spectral efficiency [bit/s/Hz] given the bandwidth used.
  double mean_spectral_efficiency = 0.0;
  /// reliability x mean throughput: the paper's combined figure of merit.
  double throughput_reliability_product = 0.0;
  std::size_t num_samples = 0;
};

/// The running fold behind a LinkSummary: what it needs of a sample
/// series, added one sample at a time in tick order. A network session
/// keeps one instead of its sample history.
struct LinkTally {
  std::size_t count = 0;
  /// Samples available AND at or above the outage SNR.
  std::size_t usable = 0;
  /// Sum of throughput over available samples, in tick order.
  double throughput_sum_bps = 0.0;

  void add(const LinkSample& sample, double outage_snr_db);
  /// Requires count > 0 and bandwidth_hz > 0.
  LinkSummary summary(double bandwidth_hz) const;
};

/// The LinkTally fold over `samples` (non-empty), summarized.
LinkSummary summarize_link(std::span<const LinkSample> samples,
                           double outage_snr_db, double bandwidth_hz);

}  // namespace mmr::core
