#include "array/pattern_cache.h"

#include <bit>

namespace mmr::array {
namespace {

// splitmix64 finalizer: the same mixer Rng::derive_stream_seed builds on;
// good avalanche for bit-pattern keys.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t bits_of(double x) { return std::bit_cast<std::uint64_t>(x); }

}  // namespace

PatternCache& PatternCache::instance() {
  static PatternCache cache;
  return cache;
}

std::size_t PatternCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = mix64(mix64(k.num_elements));
  h = mix64(h ^ k.spacing_bits);
  return static_cast<std::size_t>(mix64(h ^ k.angle_bits));
}

std::shared_ptr<const CVec> PatternCache::beam_weights(const Ula& ula,
                                                       double phi_rad) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return std::make_shared<const CVec>(single_beam_weights(ula, phi_rad));
  }
  const Key key{ula.num_elements, bits_of(ula.spacing_wavelengths),
                bits_of(phi_rad)};
  Shard& shard = shards_[KeyHash{}(key) % kNumShards];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Compute outside the lock: a duplicate race computes the same pure
  // function, and first-insert-wins keeps every caller on one object.
  auto fresh =
      std::make_shared<const CVec>(single_beam_weights(ula, phi_rad));
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (shard.map.size() >= kMaxEntriesPerShard) shard.map.clear();
  auto [it, inserted] = shard.map.emplace(key, std::move(fresh));
  misses_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

void PatternCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
}

void PatternCache::set_enabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool PatternCache::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

PatternCache::Stats PatternCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed)};
}

void PatternCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace mmr::array
