// Metrics, output checks and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metric names: a letter or digit, then at most 63 more letters, digits,
/// '_', '.' or '-'.
bool valid_metric_name(std::string_view name);
/// Units: 1 to 16 letters, digits, '_', '/', '%', '.' or '-'.
bool valid_unit(std::string_view unit);

/// Output checks counted as operations: every check is one attempted
/// operation, every failed check one failed operation.
class Checks {
 public:
  /// Record one check; a failure is described on stderr.
  bool expect(bool ok, std::string_view what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Shortest decimal text that reads back as exactly `v`.
std::string json_number(double v);

/// One metric per line ("  name = value unit") for the human-readable
/// report.
std::string format_metrics(const std::vector<Metric>& metrics);

/// JSON object {"name": {"value": v, "unit": "u"}, ...}. Throws
/// std::invalid_argument on an invalid or repeated name, an invalid unit
/// or a non-finite value.
std::string metrics_json(const std::vector<Metric>& metrics);

/// The benchmark's last output line:
/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
std::string result_line(const Checks& checks,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
