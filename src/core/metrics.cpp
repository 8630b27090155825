#include "core/metrics.h"

#include "common/error.h"

namespace mmr::core {

void LinkTally::add(const LinkSample& sample, double outage_snr_db) {
  ++count;
  if (sample.available && sample.snr_db >= outage_snr_db) ++usable;
  throughput_sum_bps += sample.available ? sample.throughput_bps : 0.0;
}

LinkSummary LinkTally::summary(double bandwidth_hz) const {
  MMR_EXPECTS(count > 0);
  MMR_EXPECTS(bandwidth_hz > 0.0);
  LinkSummary s;
  s.num_samples = count;
  const double n = static_cast<double>(count);
  s.reliability = static_cast<double>(usable) / n;
  s.mean_throughput_bps = throughput_sum_bps / n;
  s.mean_spectral_efficiency = s.mean_throughput_bps / bandwidth_hz;
  s.throughput_reliability_product = s.reliability * s.mean_throughput_bps;
  return s;
}

LinkSummary summarize_link(std::span<const LinkSample> samples,
                           double outage_snr_db, double bandwidth_hz) {
  MMR_EXPECTS(!samples.empty());
  MMR_EXPECTS(bandwidth_hz > 0.0);
  LinkTally tally;
  for (const LinkSample& sample : samples) tally.add(sample, outage_snr_db);
  return tally.summary(bandwidth_hz);
}

}  // namespace mmr::core
