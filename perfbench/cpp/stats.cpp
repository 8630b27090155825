#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile nearest_rank(std::vector<double> samples, double q,
                        std::size_t min_beyond) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty() || !(q > 0.0 && q < 100.0)) return p;
  const double n = static_cast<double>(samples.size());
  // Guard the product against representation error (0.99 * 1000 is
  // 990.0000000000001 in binary) before taking the ceiling.
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q / 100.0 * n - 1e-9)));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  p.supported = p.beyond >= min_beyond;
  return p;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

}  // namespace perfbench
