#include "trace.h"

#include <ostream>
#include <stdexcept>

#include "clock.h"

namespace perfbench {

SpanAgg SpanTotals::of(SpanId span) const {
  SpanAgg sum;
  for (const auto& [key, agg] : by_pair_) {
    if (key.second == span) sum += agg;
  }
  return sum;
}

SpanAgg SpanTotals::under(SpanId parent, SpanId span) const {
  const auto it = by_pair_.find({parent, span});
  return it == by_pair_.end() ? SpanAgg{} : it->second;
}

Tracer::Tracer()
    : current_((kMaxSpans + 1) * kMaxSpans) {
  names_.reserve(kMaxSpans);
  controller_.assign(kMaxSpans, false);
  stack_.reserve(16);
  events_.reserve(1 << 14);
}

SpanId Tracer::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  if (names_.size() >= kMaxSpans) {
    throw std::length_error("perfbench tracer: too many span names");
  }
  const auto id = static_cast<SpanId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(std::string(name), id);
  return id;
}

SpanAgg& Tracer::slot(SpanId parent, SpanId span) {
  const std::size_t row = parent == kNoParent ? kMaxSpans : parent;
  const auto index = static_cast<std::uint32_t>(row * kMaxSpans + span);
  SpanAgg& s = current_[index];
  if (s.count == 0) touched_.push_back(index);
  return s;
}

void Tracer::begin_step(SpanId kind, std::int64_t a, std::int64_t b) {
  if (!stack_.empty()) throw std::logic_error("perfbench tracer: nested step");
  events_.clear();
  stack_.push_back({kind, mono_ns(), 0});
  steps_.push_back({});
  steps_.back().kind = kind;
  steps_.back().a = a;
  steps_.back().b = b;
}

void Tracer::end_step() { end_step(mono_ns()); }

void Tracer::end_step(std::int64_t end_ns) {
  if (stack_.size() != 1) {
    throw std::logic_error("perfbench tracer: step closed with open spans");
  }
  const Frame root = stack_.back();
  stack_.clear();
  const std::int64_t dur = end_ns - root.start_ns;
  SpanAgg& r = slot(kNoParent, root.id);
  r.count += 1;
  r.total_ns += dur;
  r.self_ns += dur - root.child_ns;

  StepRecord& step = steps_.back();
  step.start_ns = root.start_ns;
  step.end_ns = end_ns;
  step.spans.reserve(touched_.size());
  for (std::uint32_t index : touched_) {
    const std::size_t row = index / kMaxSpans;
    ChildAgg c;
    c.parent = row == kMaxSpans ? kNoParent : static_cast<SpanId>(row);
    c.span = static_cast<SpanId>(index % kMaxSpans);
    c.agg = current_[index];
    step.spans.push_back(c);
    current_[index] = SpanAgg{};
  }
  touched_.clear();
}

std::int64_t Tracer::open(SpanId id) {
  if (stack_.empty()) throw std::logic_error("perfbench tracer: span outside a step");
  const std::int64_t now = mono_ns();
  if (log_events_ && stack_.size() == 1) {
    events_.push_back({now, EventKind::kOpen, id, nullptr});
  }
  stack_.push_back({id, now, 0});
  return now;
}

std::int64_t Tracer::close() {
  if (stack_.size() < 2) throw std::logic_error("perfbench tracer: unbalanced close");
  const std::int64_t now = mono_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now - f.start_ns;
  SpanAgg& s = slot(stack_.back().id, f.id);
  s.count += 1;
  s.total_ns += dur;
  s.self_ns += dur - f.child_ns;
  stack_.back().child_ns += dur;
  if (log_events_ && stack_.size() == 1) {
    events_.push_back({now, EventKind::kClose, f.id, nullptr});
  }
  return now;
}

void Tracer::add_interval(SpanId id, std::int64_t dur_ns, std::uint64_t count) {
  if (stack_.empty()) throw std::logic_error("perfbench tracer: interval outside a step");
  SpanAgg& s = slot(stack_.back().id, id);
  s.count += count;
  s.total_ns += dur_ns;
  s.self_ns += dur_ns;
  stack_.back().child_ns += dur_ns;
}

void Tracer::point(EventKind kind, const void* who) {
  if (log_events_ && stack_.size() == 1) {
    events_.push_back({mono_ns(), kind, 0, who});
  }
}

SpanTotals Tracer::totals(std::size_t first, std::size_t last) const {
  SpanTotals t;
  for (std::size_t i = first; i < last && i < steps_.size(); ++i) {
    for (const ChildAgg& c : steps_[i].spans) t.add(c);
  }
  return t;
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const StepRecord& s : steps_) {
    out << "{\"step\": \"" << names_[s.kind] << "\", \"id\": [" << s.a << ", "
        << s.b << "], \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"spans\": [";
    for (std::size_t i = 0; i < s.spans.size(); ++i) {
      const ChildAgg& c = s.spans[i];
      if (i > 0) out << ", ";
      out << "{\"name\": \"" << names_[c.span] << "\", \"parent\": ";
      if (c.parent == kNoParent) {
        out << "null";
      } else {
        out << '"' << names_[c.parent] << '"';
      }
      out << ", \"count\": " << c.agg.count << ", \"total_ns\": "
          << c.agg.total_ns << ", \"self_ns\": " << c.agg.self_ns << '}';
    }
    out << "]}\n";
  }
}

bool step_accounts(const StepRecord& step) {
  std::int64_t self_sum = 0;
  for (const ChildAgg& c : step.spans) {
    if (c.agg.self_ns < 0) return false;
    self_sum += c.agg.self_ns;
  }
  return self_sum == step.end_ns - step.start_ns;
}

NetworkIntervalCounts attribute_network_intervals(
    Tracer& tracer, const NetworkIntervalIds& ids, bool network_tick,
    std::int64_t end_ns) {
  const std::vector<Event>& e = tracer.events();
  const std::size_t n = e.size();
  NetworkIntervalCounts counts;
  auto is_ctrl = [&](std::size_t i, EventKind kind) {
    return e[i].kind == kind && tracer.is_controller(e[i].span);
  };

  // Advance pass: set_time runs right before each controller call.
  std::int64_t set_time_ns = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_ctrl(i, EventKind::kOpen)) continue;
    if (i > 0 && is_ctrl(i - 1, EventKind::kClose)) {
      set_time_ns += e[i].t_ns - e[i - 1].t_ns;
    } else if (i == 0 && network_tick) {
      set_time_ns += e[0].t_ns - tracer.step_start_ns();
    } else {
      continue;
    }
    ++counts.set_time;
  }
  if (counts.set_time > 0) {
    tracer.add_interval(ids.set_time, set_time_ns, counts.set_time);
  }

  // Scoring pass: (tx_weights, link_available, link_state) of one
  // controller; the session's scoring runs until the next triple starts.
  std::size_t first_triple = n;
  std::size_t last_state = n;
  std::int64_t score_ns = 0;
  for (std::size_t i = 0; i + 2 < n; ++i) {
    if (e[i].kind != EventKind::kTxWeights ||
        e[i + 1].kind != EventKind::kLinkAvailable ||
        e[i + 2].kind != EventKind::kLinkState || e[i].who != e[i + 1].who ||
        e[i].who != e[i + 2].who) {
      continue;
    }
    const bool next_triple =
        i + 3 < n && e[i + 3].kind == EventKind::kTxWeights;
    score_ns += (next_triple ? e[i + 3].t_ns : e[i + 2].t_ns) - e[i].t_ns;
    ++counts.scored;
    if (first_triple == n) first_triple = i;
    last_state = i + 2;
    i += 2;
  }
  if (counts.scored > 0) tracer.add_interval(ids.score, score_ns, counts.scored);
  if (!network_tick) return counts;

  // The advance pass is the leading run of controller span boundaries.
  std::size_t advance_end = 0;
  while (advance_end < n && (is_ctrl(advance_end, EventKind::kOpen) ||
                             is_ctrl(advance_end, EventKind::kClose))) {
    ++advance_end;
  }
  if (advance_end > 0 && first_triple < n && advance_end < first_triple &&
      e[advance_end].kind == EventKind::kLinkAvailable) {
    for (std::size_t i = advance_end; i < first_triple; ++i) {
      if (e[i].kind == EventKind::kTxWeights) ++counts.interferers;
    }
    tracer.add_interval(ids.fold,
                        e[first_triple].t_ns - e[advance_end - 1].t_ns);
  }

  if (last_state < n) {
    // Rebuild spans after the last scored session are handovers'
    // world/controller builds, already charged as spans of their own.
    std::int64_t handover_ns = end_ns - e[last_state].t_ns;
    std::int64_t opened = 0;
    for (std::size_t i = last_state + 1; i < n; ++i) {
      if (e[i].kind == EventKind::kOpen) opened = e[i].t_ns;
      if (e[i].kind == EventKind::kClose) handover_ns -= e[i].t_ns - opened;
    }
    tracer.add_interval(ids.handover, handover_ns);
  }
  return counts;
}

}  // namespace perfbench
