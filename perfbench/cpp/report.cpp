#include "report.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

bool is_alnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64 || !is_alnum(name.front())) {
    return false;
  }
  for (char c : name) {
    if (!is_alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!is_alnum(c) && c != '_' && c != '/' && c != '%' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

bool Checks::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "perfbench: check failed: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
  return ok;
}

std::string json_number(double v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec != std::errc()) throw std::invalid_argument("unprintable number");
  return std::string(buf, ptr);
}

std::string format_metrics(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  for (const Metric& m : metrics) {
    out << "  " << m.name << " = " << json_number(m.value) << ' ' << m.unit
        << '\n';
  }
  return out.str();
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::set<std::string_view> seen;
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name) || !seen.insert(m.name).second) {
      throw std::invalid_argument("invalid or repeated metric name: " +
                                  m.name);
    }
    if (!valid_unit(m.unit)) {
      throw std::invalid_argument("invalid unit for " + m.name);
    }
    if (!std::isfinite(m.value)) {
      throw std::invalid_argument("non-finite value for " + m.name);
    }
    if (i > 0) out << ", ";
    out << '"' << m.name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << '}';
  return out.str();
}

std::string result_line(const Checks& checks,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (checks.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << checks.attempted()
      << ", \"failed\": " << checks.failed()
      << ", \"metrics\": " << metrics_json(metrics) << '}';
  return out.str();
}

}  // namespace perfbench
