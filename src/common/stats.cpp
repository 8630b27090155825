#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace mmr {

double percentile(std::span<const double> values, double p) {
  MMR_EXPECTS(!values.empty());
  MMR_EXPECTS(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

double mean(std::span<const double> values) {
  MMR_EXPECTS(!values.empty());
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace mmr
