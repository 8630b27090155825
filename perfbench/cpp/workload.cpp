#include "workload.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <sstream>

#include "array/pattern_cache.h"
#include "procfs.h"

namespace perfbench {
namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string strip_suffix(const std::string& s, std::string_view suffix) {
  return s.substr(0, s.size() - suffix.size());
}

bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

void TimedPhase::add_segment(double link_ticks, double raw_cpu_s,
                             double factor) {
  segment_link_ticks.push_back(link_ticks);
  segment_raw_cpu_s.push_back(raw_cpu_s);
  segment_factor.push_back(factor);
  for (std::size_t i = closed_steps_; i < step_s.size(); ++i) {
    step_s[i] *= factor;
  }
  closed_steps_ = step_s.size();
}

double TimedPhase::link_ticks() const {
  double sum = 0.0;
  for (double v : segment_link_ticks) sum += v;
  return sum;
}

double TimedPhase::raw_cpu_s() const {
  double sum = 0.0;
  for (double v : segment_raw_cpu_s) sum += v;
  return sum;
}

double TimedPhase::calibrated_cpu_s() const {
  double sum = 0.0;
  for (std::size_t i = 0; i < segment_raw_cpu_s.size(); ++i) {
    sum += segment_raw_cpu_s[i] * segment_factor[i];
  }
  return sum;
}

void add_common_end_to_end(WorkloadOutput& out, Checks& checks,
                           const std::vector<double>& setup_s,
                           const TimedPhase& timed) {
  const Percentile p50 = nearest_rank(timed.step_s, 50.0);
  const Percentile p99 = nearest_rank(timed.step_s, 99.0);
  checks.expect(p50.supported && p99.supported,
                "step p99 has at least ten samples beyond it");
  checks.expect(timed.raw_cpu_s() > 0.0 && timed.link_ticks() > 0.0,
                "timed phase scored link-ticks");
  out.end_to_end.push_back({"setup_s", median(setup_s), "s"});
  out.end_to_end.push_back(
      {"link_ticks_per_s", ratio(timed.link_ticks(), timed.calibrated_cpu_s()),
       "1/s"});
  out.end_to_end.push_back({"step_p50_ms", p50.value * 1e3, "ms"});
  out.end_to_end.push_back({"step_p99_ms", p99.value * 1e3, "ms"});
  out.end_to_end.push_back(
      {"peak_rss_mb", static_cast<double>(vm_hwm_kb()) / 1024.0, "MB"});
  std::ostringstream note;
  note << "step samples " << p50.samples << " (p50 with " << p50.beyond
       << " beyond, p99 with " << p99.beyond << " beyond); link-ticks "
       << json_number(timed.link_ticks()) << " over "
       << timed.segment_factor.size() << " segments; set-up repeated "
       << setup_s.size() << "x, median reported";
  out.notes.push_back(note.str());
  std::ostringstream speed;
  speed << "calibration: speed factor median "
        << json_number(median(timed.segment_factor)) << " (min "
        << json_number(*std::min_element(timed.segment_factor.begin(),
                                         timed.segment_factor.end()))
        << ", max "
        << json_number(*std::max_element(timed.segment_factor.begin(),
                                         timed.segment_factor.end()))
        << "); uncalibrated rate "
        << json_number(ratio(timed.link_ticks(), timed.raw_cpu_s()))
        << " 1/s over " << json_number(timed.raw_cpu_s()) << " CPU-s";
  out.notes.push_back(speed.str());
}

void add_layer_metrics(WorkloadOutput& out, Checks& checks,
                       const Tracer& tracer, std::size_t first,
                       std::size_t last) {
  std::size_t unaccounted = 0;
  for (const StepRecord& step : tracer.steps()) {
    if (!step_accounts(step)) ++unaccounted;
  }
  checks.expect(unaccounted == 0,
                "span self times account for every traced step");

  const SpanTotals totals = tracer.totals(first, last);
  auto find = [&](std::string_view name) -> SpanAgg {
    for (SpanId id = 0; id < tracer.span_count(); ++id) {
      if (tracer.name(id) == name) return totals.of(id);
    }
    return {};
  };

  // Controllers: "<module>.<scheme>.start|step" spans and their probes.
  struct Scheme {
    SpanAgg start, step, csi, cir;
  };
  std::map<std::string, Scheme> schemes;
  SpanId csi = 0, cir = 0;
  for (SpanId id = 0; id < tracer.span_count(); ++id) {
    if (tracer.name(id) == "phy.csi") csi = id;
    if (tracer.name(id) == "phy.cir") cir = id;
  }
  for (SpanId id = 0; id < tracer.span_count(); ++id) {
    if (!tracer.is_controller(id)) continue;
    const std::string& name = tracer.name(id);
    const bool is_start = ends_with(name, ".start");
    Scheme& s = schemes[strip_suffix(name, is_start ? ".start" : ".step")];
    (is_start ? s.start : s.step) += totals.of(id);
    s.csi += totals.under(id, csi);
    s.cir += totals.under(id, cir);
  }
  Scheme all;
  for (const auto& [prefix, s] : schemes) {
    all.start += s.start;
    all.step += s.step;
    all.csi += s.csi;
    all.cir += s.cir;
    const double ticks = static_cast<double>(s.start.count + s.step.count);
    const std::string scheme = prefix.substr(prefix.find('.') + 1);
    out.workload_per_layer.push_back(
        {prefix + ".step_self_us",
         ratio(static_cast<double>(s.step.self_ns), s.step.count) / 1e3,
         "us"});
    out.workload_per_layer.push_back(
        {prefix + ".start_ms",
         ratio(static_cast<double>(s.start.self_ns), s.start.count) / 1e6,
         "ms"});
    out.workload_per_layer.push_back(
        {"phy." + scheme + ".csi_per_tick",
         ratio(static_cast<double>(s.csi.count), ticks), "count"});
    out.workload_per_layer.push_back(
        {"phy." + scheme + ".cir_per_tick",
         ratio(static_cast<double>(s.cir.count), ticks), "count"});
  }
  const double link_ticks = static_cast<double>(all.start.count + all.step.count);
  const SpanAgg probes_csi = totals.of(csi);
  const SpanAgg probes_cir = totals.of(cir);
  const SpanAgg set_time = find("channel.set_time");
  const SpanAgg score = find("sim.score");
  const SpanAgg world = find("sim.world_build");
  const SpanAgg controller = find("sim.controller_build");

  // Root self time: what the step loop itself spends outside every
  // layer span the benchmark can see.
  std::int64_t root_self = 0;
  std::size_t roots = 0;
  for (std::size_t i = first; i < last && i < tracer.steps().size(); ++i) {
    for (const ChildAgg& c : tracer.steps()[i].spans) {
      if (c.parent == Tracer::kNoParent) root_self += c.agg.self_ns;
    }
    ++roots;
  }

  auto mean_us = [](const SpanAgg& a) {
    return ratio(static_cast<double>(a.total_ns), a.count) / 1e3;
  };
  out.per_layer.push_back(
      {"ctrl.step_self_us",
       ratio(static_cast<double>(all.step.self_ns), all.step.count) / 1e3,
       "us"});
  out.per_layer.push_back(
      {"ctrl.start_self_ms",
       ratio(static_cast<double>(all.start.self_ns), all.start.count) / 1e6,
       "ms"});
  out.per_layer.push_back({"phy.csi_us", mean_us(probes_csi), "us"});
  out.per_layer.push_back(
      {"phy.csi_per_tick", ratio(probes_csi.count, link_ticks), "count"});
  out.per_layer.push_back(
      {"phy.cir_per_tick", ratio(probes_cir.count, link_ticks), "count"});
  out.per_layer.push_back({"channel.set_time_us", mean_us(set_time), "us"});
  out.per_layer.push_back({"sim.score_us", mean_us(score), "us"});
  out.per_layer.push_back({"sim.world_build_us", mean_us(world), "us"});
  out.per_layer.push_back(
      {"sim.controller_build_us", mean_us(controller), "us"});
  out.per_layer.push_back(
      {"sim.world_builds", static_cast<double>(world.count), "count"});
  out.per_layer.push_back(
      {"sim.controller_builds", static_cast<double>(controller.count),
       "count"});
  out.per_layer.push_back(
      {"step.self_us", ratio(static_cast<double>(root_self), roots) / 1e3,
       "us"});
  if (probes_cir.count > 0) {
    out.workload_per_layer.push_back({"phy.cir_us", mean_us(probes_cir), "us"});
  }
  std::ostringstream note;
  note << "traced " << roots << " steps, " << static_cast<std::uint64_t>(link_ticks)
       << " link-ticks, " << probes_csi.count << " csi + " << probes_cir.count
       << " cir probes";
  out.notes.push_back(note.str());
}

void CachePhase::start() { mmr::array::PatternCache::instance().reset_stats(); }

void CachePhase::stop() {
  const auto stats = mmr::array::PatternCache::instance().stats();
  hits = stats.hits;
  misses = stats.misses;
}

double CachePhase::hit_ratio() const {
  const std::uint64_t lookups = hits + misses;
  return lookups == 0 ? -1.0
                      : static_cast<double>(hits) / static_cast<double>(lookups);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void clear_caches() { mmr::array::PatternCache::instance().clear(); }

}  // namespace perfbench
