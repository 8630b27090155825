// Terragraph-style per-link state machine (SNIPPETS.md snippet 1; the
// 802.11ay mesh heritage the paper positions itself against).
//
// Every managed mmWave link lives in one of four states:
//
//                    acquire            success
//        LinkDown ------------> Acquisition ------> LinkUp
//            ^                      |                 |  ^
//            |            failure / |      error      |  | recovered
//            |              timeout |      burst      v  |
//            +----------------------+             LinkUnstable
//            ^                                        |
//            +---------- recovery timeout ------------+
//
// Recovery actions (beam refinement, beam switching) happen INSIDE
// LinkUnstable and are the controller's business; the machine only
// tracks which phase the link is in, enforces dwell-time hysteresis
// (a just-established link ignores error bursts for min_up_dwell_s so a
// single bad probe cannot flap it), and imposes deadlines (an unstable
// link that fails to recover within max_unstable_s, or an acquisition
// that overruns max_acquisition_s, is torn down to LinkDown).
//
// The transition table is a pure function so the test tier can assert
// every (state, event) pair exhaustively; illegal pairs self-loop --
// no event sequence, fuzzed or otherwise, can reach an undefined state.
#pragma once

#include <cstddef>
#include <optional>

namespace mmr::core {

enum class LinkState {
  kDown,         ///< no beam; nothing scheduled on the link
  kAcquisition,  ///< initial access / full retraining in flight
  kUp,           ///< serving traffic on the trained beam(s)
  kUnstable,     ///< error burst seen; refinement/switching in progress
};

inline constexpr std::size_t kNumLinkStates = 4;

/// Stable lower_snake names for logs and JSON.
const char* to_string(LinkState state);

enum class LinkEvent {
  kAcquire,             ///< begin initial access or reacquisition
  kAcquisitionSuccess,  ///< training produced a serving beam
  kAcquisitionFailure,  ///< training failed or overran its deadline
  kErrorBurst,          ///< burst of decode errors / probe power collapse
  kRecovered,           ///< refinement or switching restored the link
  kRecoveryTimeout,     ///< unstable too long; tear down
  kLinkLost,            ///< hard teardown (handover, radio reset)
};

inline constexpr std::size_t kNumLinkEvents = 7;

const char* to_string(LinkEvent event);

/// The pure transition table. Illegal (state, event) pairs return the
/// input state unchanged (self-loop) so the machine is total: no event
/// sequence can escape the four legal states.
LinkState transition(LinkState state, LinkEvent event);

/// True when `event` is meaningful in `state` (i.e. transition() moves,
/// or the pair is an explicit documented self-loop like an error burst
/// while already unstable).
bool transition_is_legal(LinkState state, LinkEvent event);

struct LinkStateConfig {
  /// Hysteresis: error bursts within this dwell of entering LinkUp are
  /// suppressed, so one bad probe right after training cannot flap the
  /// link back into recovery.
  double min_up_dwell_s = 10.0e-3;
  /// Deadline for recovery: LinkUnstable longer than this tears down to
  /// LinkDown (kRecoveryTimeout) on the next poll().
  double max_unstable_s = 25.0e-3;
  /// Deadline for acquisition: overrunning it fails to LinkDown.
  double max_acquisition_s = 100.0e-3;

  /// MMR_EXPECTS: all fields finite and non-negative.
  void validate() const;
};

/// Time-aware wrapper over transition(): dwell tracking, hysteresis,
/// deadline polling, and per-state time accounting (the availability
/// ledger the network layer reports from). Time must be non-decreasing
/// across apply()/poll() calls.
class LinkStateMachine {
 public:
  explicit LinkStateMachine(LinkStateConfig config = {}, double t0_s = 0.0);

  LinkState state() const { return state_; }
  /// Time spent in the current state as of t_s.
  double dwell_s(double t_s) const { return t_s - entered_at_; }

  /// Apply an external event at time t_s. Returns true when the state
  /// changed. Error bursts inside the up-dwell hysteresis window are
  /// suppressed; illegal events self-loop (no change, returns false).
  bool apply(double t_s, LinkEvent event);

  /// Drive the deadline transitions (call once per tick, before reading
  /// state()): LinkUnstable past max_unstable_s applies kRecoveryTimeout,
  /// LinkAcquisition past max_acquisition_s applies kAcquisitionFailure.
  /// Returns the event applied, if any.
  std::optional<LinkEvent> poll(double t_s);

  /// Cumulative time spent in `state` (updated by every apply/poll).
  double time_in(LinkState state) const;
  /// State changes so far (self-loops and suppressed bursts excluded).
  std::size_t transitions() const { return transitions_; }
  const LinkStateConfig& config() const { return config_; }

 private:
  void advance_clock(double t_s);

  LinkStateConfig config_;
  LinkState state_ = LinkState::kDown;
  double entered_at_ = 0.0;
  double last_t_ = 0.0;
  double time_in_[kNumLinkStates] = {0.0, 0.0, 0.0, 0.0};
  std::size_t transitions_ = 0;
};

}  // namespace mmr::core
