// Batch statistics used by the experiment harness: means and percentiles.
// (The O(1) streaming family is common/streaming_stats.h.)
#pragma once

#include <span>

namespace mmr {

/// Percentile of a sample set with linear interpolation, p in [0, 100].
/// Requires a non-empty input.
double percentile(std::span<const double> values, double p);

/// Median shorthand.
double median(std::span<const double> values);

double mean(std::span<const double> values);

}  // namespace mmr
