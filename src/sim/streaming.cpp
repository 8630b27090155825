#include "sim/streaming.h"

#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "sim/workspace.h"

namespace mmr::sim {
namespace {

/// Sub-stream id for a shard's churn draws (same splitmix64 derivation
/// discipline as sim::kFaultSeedStream / net::kPlacementSeedStream).
inline constexpr std::uint64_t kChurnSeedStream = 0x5EAC;

double wall_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Knuth Poisson draw by uniform products -- exact inversion is overkill
/// for the per-tick arrival intensities (lambda << 10) churn runs at.
std::uint64_t poisson_draw(Rng& rng, double lambda) {
  const double limit = std::exp(-lambda);
  std::uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= rng.uniform();
  } while (p > limit);
  return k - 1;
}

}  // namespace

void ChurnModel::validate() const {
  MMR_EXPECTS(std::isfinite(arrival_rate_per_s) && arrival_rate_per_s >= 0.0);
  MMR_EXPECTS(std::isfinite(mean_lifetime_s) && mean_lifetime_s >= 0.0);
}

void StreamingSpec::validate() const {
  network.validate();
  churn.validate();
  MMR_EXPECTS(!name.empty());
  MMR_EXPECTS(shards >= 1);
  MMR_EXPECTS(seed != 0);
  MMR_EXPECTS(std::isfinite(duration_s) && duration_s > 0.0);
  MMR_EXPECTS(std::isfinite(snapshot_every_s) &&
              snapshot_every_s >= network.run.tick_s);
}

/// One shard: a session table (its own interference/handover domain), a
/// scratch workspace bound to every session world, a churn stream, slot
/// lifetime deadlines, and the shard-local O(1) accumulators. Everything
/// a shard computes is a pure function of the spec + shard index, never
/// of the worker schedule.
struct StreamingService::Shard {
  std::size_t index = 0;
  // Workspace declared before the network: worlds keep a pointer into it,
  // so it must be destroyed after them.
  std::unique_ptr<TrialWorkspace> workspace;
  std::unique_ptr<net::Network> network;
  Rng churn_rng{1};
  std::uint64_t next_local_id = 0;
  std::uint64_t joined = 0;
  std::uint64_t left = 0;
  /// Slot-indexed departure deadline (+inf = immortal).
  std::vector<double> death_s;

  StreamingMoments snr;
  StreamingMoments tput;
  P2Quantile snr_p50{0.5}, snr_p99{0.99}, snr_p999{0.999};
  P2Quantile tput_p50{0.5}, tput_p99{0.99}, tput_p999{0.999};
  AvailabilityCounter avail;
};

StreamingService::StreamingService(const StreamingSpec& spec,
                                   TelemetrySink* sink)
    : spec_(spec), sink_(sink) {
  spec_.validate();
}

StreamingService::~StreamingService() = default;

std::size_t StreamingService::live_sessions() const {
  std::size_t live = 0;
  for (const auto& sh : shards_) live += sh->network->live_count();
  return live;
}

void StreamingService::begin() {
  MMR_EXPECTS(!begun_);
  begun_ = true;
  epoch_ = 0;
  snapshot_index_ = 0;
  last_snapshot_ticks_ = 0;
  const double tick = spec_.network.run.tick_s;
  ticks_per_snapshot_ = static_cast<std::uint64_t>(
      std::llround(spec_.snapshot_every_s / tick));
  if (ticks_per_snapshot_ == 0) ticks_per_snapshot_ = 1;

  // jobs=1 steps the shards inline on this thread, jobs=K>1 fans the
  // shard sweep over a pool; both steady-state tick loops are
  // allocation-free (pinned by the alloc tier). Either way the
  // accumulator fold below is orchestrator-side and in shard-index order,
  // so results are identical.
  const std::size_t jobs =
      spec_.jobs == 0 ? ThreadPool::hardware_jobs() : spec_.jobs;
  if (jobs > 1) pool_ = std::make_unique<ThreadPool>(jobs);

  shards_.reserve(spec_.shards);
  for (std::size_t k = 0; k < spec_.shards; ++k) {
    auto sh = std::make_unique<Shard>();
    sh->index = k;
    // Shard 0 takes the service seed VERBATIM -- the same convention as
    // the engine's link 0, so a 1-shard/1-session service collapses to
    // the engine trial with scenario seed == spec.seed.
    const std::uint64_t shard_seed =
        k == 0 ? spec_.seed : Rng::derive_stream_seed(spec_.seed, k);
    sh->workspace = std::make_unique<TrialWorkspace>();
    sh->network = std::make_unique<net::Network>(
        spec_.network, shard_seed, sh->workspace.get(),
        /*populate_sessions=*/false);
    sh->network->begin();
    sh->churn_rng = Rng(Rng::derive_stream_seed(shard_seed, kChurnSeedStream));
    shards_.push_back(std::move(sh));
  }
  // Initial population, round-robin across shards: global session g lands
  // in shard g % shards with local ordinal g / shards, so its id is
  // exactly g (id = ordinal * shards + shard).
  for (std::size_t g = 0; g < spec_.sessions; ++g) {
    join_session(*shards_[g % spec_.shards], 0.0);
  }
  last_snapshot_wall_s_ = wall_now_s();
}

void StreamingService::join_session(Shard& sh, double t_s) {
  const std::uint64_t id = sh.next_local_id++ * spec_.shards + sh.index;
  const std::size_t slot = sh.network->join(id, t_s);
  if (sh.death_s.size() < sh.network->slot_count()) {
    sh.death_s.resize(sh.network->slot_count(),
                      std::numeric_limits<double>::infinity());
  }
  sh.death_s[slot] =
      spec_.churn.mean_lifetime_s > 0.0
          ? t_s + sh.churn_rng.exponential(spec_.churn.mean_lifetime_s)
          : std::numeric_limits<double>::infinity();
  ++sh.joined;
}

void StreamingService::process_churn(Shard& sh, double t_s) {
  // Departures first, so arrivals can recycle the freed slots this tick.
  for (std::size_t slot = 0; slot < sh.network->slot_count(); ++slot) {
    if (sh.network->slot_live(slot) && sh.death_s[slot] <= t_s) {
      sh.network->leave(slot);
      sh.death_s[slot] = std::numeric_limits<double>::infinity();
      ++sh.left;
    }
  }
  const double lambda = spec_.churn.arrival_rate_per_s /
                        static_cast<double>(spec_.shards) *
                        spec_.network.run.tick_s;
  if (lambda <= 0.0) return;
  const std::size_t cap =
      spec_.max_sessions > 0
          ? std::max<std::size_t>(1, spec_.max_sessions / spec_.shards)
          : std::numeric_limits<std::size_t>::max();
  const std::uint64_t arrivals = poisson_draw(sh.churn_rng, lambda);
  for (std::uint64_t a = 0; a < arrivals; ++a) {
    if (sh.network->live_count() >= cap) break;
    join_session(sh, t_s);
  }
}

void StreamingService::accumulate(Shard& sh, double /*t_s*/) {
  const double outage = spec_.network.run.outage_snr_db;
  const std::span<const core::LinkSample> samples = sh.network->tick_samples();
  for (std::size_t slot = 0; slot < sh.network->slot_count(); ++slot) {
    if (!sh.network->slot_live(slot)) continue;
    const core::LinkSample& sample = samples[slot];
    // A tick without signal carries the -300 dB sentinel, not an SNR: it
    // counts in availability and throughput, never in the SNR statistics.
    if (sample.has_signal) {
      sh.snr.add(sample.snr_db);
      sh.snr_p50.add(sample.snr_db);
      sh.snr_p99.add(sample.snr_db);
      sh.snr_p999.add(sample.snr_db);
    }
    sh.tput.add(sample.throughput_bps);
    sh.tput_p50.add(sample.throughput_bps);
    sh.tput_p99.add(sample.throughput_bps);
    sh.tput_p999.add(sample.throughput_bps);
    sh.avail.add(sample.available, sample.snr_db >= outage);
  }
}

void StreamingService::step_epoch() {
  MMR_EXPECTS(begun_);
  const double t = static_cast<double>(epoch_) * spec_.network.run.tick_s;
  const bool churn_on = spec_.churn.enabled();
  auto tick_shard = [this, t, churn_on](std::size_t k) {
    Shard& sh = *shards_[k];
    if (churn_on) process_churn(sh, t);
    sh.network->step_tick(t);
    accumulate(sh, t);
  };
  if (pool_ != nullptr) {
    pool_->parallel_for(shards_.size(), tick_shard);
  } else {
    for (std::size_t k = 0; k < shards_.size(); ++k) tick_shard(k);
  }
  ++epoch_;
  if (epoch_ % ticks_per_snapshot_ == 0) {
    emit_snapshot(static_cast<double>(epoch_) * spec_.network.run.tick_s);
  }
}

void StreamingService::emit_snapshot(double t_s) {
  // Fold the shard accumulators in SHARD-INDEX ORDER on this (the
  // orchestrator) thread: the merged bits are a pure function of the
  // shard states, so jobs=K output is byte-identical to jobs=1.
  StreamingMoments snr, tput;
  P2Quantile snr_p50(0.5), snr_p99(0.99), snr_p999(0.999);
  P2Quantile tput_p50(0.5), tput_p99(0.99), tput_p999(0.999);
  AvailabilityCounter avail;
  std::uint64_t joined = 0, left = 0, live = 0;
  for (const auto& shp : shards_) {
    const Shard& sh = *shp;
    snr.merge_from(sh.snr);
    tput.merge_from(sh.tput);
    snr_p50.merge_from(sh.snr_p50);
    snr_p99.merge_from(sh.snr_p99);
    snr_p999.merge_from(sh.snr_p999);
    tput_p50.merge_from(sh.tput_p50);
    tput_p99.merge_from(sh.tput_p99);
    tput_p999.merge_from(sh.tput_p999);
    avail.merge_from(sh.avail);
    joined += sh.joined;
    left += sh.left;
    live += sh.network->live_count();
  }

  StreamSnapshot s;
  s.t_s = t_s;
  s.index = snapshot_index_++;
  s.live_sessions = live;
  s.total_joined = joined;
  s.total_left = left;
  s.window_ticks = avail.window_ticks();
  s.total_ticks = avail.ticks();
  if (!spec_.freeze_timing) {
    const double now = wall_now_s();
    const double dt = now - last_snapshot_wall_s_;
    s.session_ticks_per_s =
        dt > 0.0 ? static_cast<double>(s.total_ticks - last_snapshot_ticks_) / dt
                 : 0.0;
    last_snapshot_wall_s_ = now;
  }
  last_snapshot_ticks_ = s.total_ticks;
  s.window_availability = avail.window_availability();
  s.availability = avail.availability();
  s.outage_ticks = avail.outage();
  if (snr.count() > 0) {
    s.snr_mean_db = snr.mean();
    s.snr_stddev_db = snr.stddev();
    s.snr_p50_db = snr_p50.quantile();
    s.snr_p99_db = snr_p99.quantile();
    s.snr_p999_db = snr_p999.quantile();
  }
  if (tput.count() > 0) {
    s.tput_mean_bps = tput.mean();
    s.tput_stddev_bps = tput.stddev();
    s.tput_p50_bps = tput_p50.quantile();
    s.tput_p99_bps = tput_p99.quantile();
    s.tput_p999_bps = tput_p999.quantile();
  }

  for (auto& shp : shards_) shp->avail.reset_window();
  last_snapshot_ = s;
  if (sink_ != nullptr) sink_->on_snapshot(s);
}

StreamingResult StreamingService::run() {
  begin();
  const auto num_epochs = static_cast<std::uint64_t>(
      spec_.duration_s / spec_.network.run.tick_s);
  for (std::uint64_t i = 0; i < num_epochs; ++i) step_epoch();
  return finish();
}

StreamingResult StreamingService::finish() {
  MMR_EXPECTS(begun_);
  // Close a partial final window, if any ticks landed since the last
  // cadence boundary.
  bool pending = false;
  for (const auto& sh : shards_) {
    if (sh->avail.window_ticks() > 0) pending = true;
  }
  if (pending) {
    emit_snapshot(static_cast<double>(epoch_) * spec_.network.run.tick_s);
  }

  StreamingResult result;
  result.epochs = epoch_;
  result.snapshots_emitted = snapshot_index_;
  for (const auto& sh : shards_) {
    result.total_joined += sh->joined;
    result.total_left += sh->left;
  }
  result.live_sessions = live_sessions();
  result.final_snapshot = last_snapshot_;
  return result;
}

}  // namespace mmr::sim
