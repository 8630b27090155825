// In-memory span trace for the benchmark's traced pass.
//
// Every span has a name, a start, an end and a parent (the span open
// below it). A step -- one fig18 trial, one streaming epoch, one network
// tick -- is the root span; everything recorded while it is open shares
// the step's id. Instead of one record per probe call, each step keeps
// aggregates per (parent, span) pair: call count, summed duration and
// summed self time (duration minus the time its direct children cover).
// Self times of all spans of a step therefore add up to the step's
// duration exactly. Records stay in memory and are written out at the
// end of the run.
//
// Spans read the vDSO monotonic clock; a process-CPU read is a system
// call and would dominate short spans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using SpanId = std::uint16_t;

/// What the traced pass logs at the step's top level (depth 1) for the
/// network interval analysis: span boundaries, plus the point calls a
/// net::Network makes on its controllers between them.
enum class EventKind : std::uint8_t {
  kOpen,
  kClose,
  kTxWeights,
  kLinkAvailable,
  kLinkState,
};

struct Event {
  std::int64_t t_ns = 0;
  EventKind kind = EventKind::kOpen;
  SpanId span = 0;            ///< kOpen/kClose only
  const void* who = nullptr;  ///< point calls: the controller called
};

struct SpanAgg {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;

  SpanAgg& operator+=(const SpanAgg& o) {
    count += o.count;
    total_ns += o.total_ns;
    self_ns += o.self_ns;
    return *this;
  }
};

struct ChildAgg {
  SpanId parent = 0;
  SpanId span = 0;
  SpanAgg agg;
};

struct StepRecord {
  SpanId kind = 0;  ///< the root span's name
  std::int64_t a = 0, b = -1;  ///< step id, e.g. (trial, tick)
  std::int64_t start_ns = 0, end_ns = 0;
  /// Every (parent, span) aggregate of the step. The root appears with
  /// parent Tracer::kNoParent.
  std::vector<ChildAgg> spans;
};

/// Aggregates summed over a range of steps, keyed by (parent, span).
class SpanTotals {
 public:
  void add(const ChildAgg& c) { by_pair_[{c.parent, c.span}] += c.agg; }
  /// Over every parent.
  SpanAgg of(SpanId span) const;
  SpanAgg under(SpanId parent, SpanId span) const;

 private:
  std::map<std::pair<SpanId, SpanId>, SpanAgg> by_pair_;
};

class Tracer {
 public:
  static constexpr SpanId kNoParent = 0xFFFF;
  static constexpr std::size_t kMaxSpans = 64;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Id of a span name, creating it on first use.
  SpanId intern(std::string_view name);
  const std::string& name(SpanId id) const { return names_[id]; }
  std::size_t span_count() const { return names_.size(); }
  /// Controller start/step spans bound the network interval analysis.
  void mark_controller(SpanId id) { controller_[id] = true; }
  bool is_controller(SpanId id) const { return controller_[id]; }

  /// Log depth-1 events for the network interval analysis.
  void set_event_log(bool on) { log_events_ = on; }

  /// Open the root span of a step. No span may be open.
  void begin_step(SpanId kind, std::int64_t a, std::int64_t b = -1);
  /// Close the root span at now / at `end_ns` and store the step record.
  void end_step();
  void end_step(std::int64_t end_ns);
  std::int64_t step_start_ns() const { return stack_.front().start_ns; }

  /// Open a child of the innermost open span; returns its start.
  std::int64_t open(SpanId id);
  /// Close the innermost open span (never the root); returns its end.
  std::int64_t close();
  /// Charge an interval the benchmark inferred from the event log (a
  /// leaf: it has no children) to the innermost open span.
  void add_interval(SpanId id, std::int64_t dur_ns, std::uint64_t count = 1);
  /// Log a point call on a controller (depth 1 only).
  void point(EventKind kind, const void* who);

  /// The current step's depth-1 event log.
  const std::vector<Event>& events() const { return events_; }

  const std::vector<StepRecord>& steps() const { return steps_; }
  /// Aggregates over steps [first, last).
  SpanTotals totals(std::size_t first, std::size_t last) const;

  /// One JSON object per step (name, id, start, end and its span
  /// aggregates with their parents).
  void write_jsonl(std::ostream& out) const;

 private:
  struct Frame {
    SpanId id = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  SpanAgg& slot(SpanId parent, SpanId span);

  std::vector<std::string> names_;
  std::map<std::string, SpanId, std::less<>> ids_;
  std::vector<bool> controller_;
  bool log_events_ = false;
  std::vector<Frame> stack_;
  std::vector<Event> events_;
  /// Current step's aggregates: (kMaxSpans + 1) parent rows (the last is
  /// "no parent") x kMaxSpans spans, plus the slots touched so far.
  std::vector<SpanAgg> current_;
  std::vector<std::uint32_t> touched_;
  std::vector<StepRecord> steps_;
};

/// RAII child span.
class Span {
 public:
  Span(Tracer& tracer, SpanId id) : tracer_(tracer) { tracer_.open(id); }
  ~Span() { tracer_.close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
};

/// True when every span self time of `step` is non-negative and the self
/// times add up to the root's duration -- i.e. the per-layer self times
/// plus their children account for the step span.
bool step_accounts(const StepRecord& step);

/// Span ids the network interval analysis charges.
struct NetworkIntervalIds {
  SpanId set_time = 0;  ///< LinkWorld::set_time before each controller call
  SpanId score = 0;     ///< SINR scoring + link-state drive of one session
  SpanId fold = 0;      ///< cross-link interference fold
  SpanId handover = 0;  ///< handover pass, minus rebuild spans
};

struct NetworkIntervalCounts {
  std::size_t set_time = 0;
  std::size_t scored = 0;
  /// Interferers transmitting in the fold (each couples into every other
  /// scored session).
  std::size_t interferers = 0;
};

/// Infer, from the current step's event log, the intervals a
/// net::Network spends between its calls into the controllers, and
/// charge them to the open root span:
///   * advance pass -- the gap between one controller start/step span
///     closing and the next opening is the next session's
///     LinkWorld::set_time (the pass calls nothing else in between);
///   * scoring pass -- tx_weights, link_available, link_state of one
///     controller in a row bracket that session's true-SNR + SINR + MCS
///     scoring and link-state drive;
/// and, for one Network::step_tick (`network_tick`), additionally
///   * the first session's set_time (from the step start),
///   * the interference fold between the advance and scoring passes
///     (opened by link_available calls, not a scoring triple),
///   * the handover pass after the last scored session, minus rebuild
///     spans.
/// `end_ns` is the step end the caller will close the root at.
NetworkIntervalCounts attribute_network_intervals(
    Tracer& tracer, const NetworkIntervalIds& ids, bool network_tick,
    std::int64_t end_ns);

}  // namespace perfbench
