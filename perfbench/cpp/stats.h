// Order statistics for step timings.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile together with the sample count behind it.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  /// Samples ranked strictly above the selected one.
  std::size_t beyond = 0;
  /// True when at least `min_beyond` samples rank above the selected one,
  /// so the tail the percentile names is backed by real observations.
  bool supported = false;
};

/// Nearest-rank percentile q (0 < q < 100): the ceil(q/100 * n)-th
/// smallest sample. An empty input is unsupported with value 0.
Percentile nearest_rank(std::vector<double> samples, double q,
                        std::size_t min_beyond = 10);

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty input.
double median(std::vector<double> values);

}  // namespace perfbench
