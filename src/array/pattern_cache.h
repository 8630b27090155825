// A process-wide memo of matched single-beam weights.
//
// Parallel sweep workers re-derive the same single-beam weights thousands
// of times per campaign: every trial rebuilds the sector codebook, and
// every probe resynthesizes multi-beams from the same trained angles.
// PatternCache memoizes single_beam_weights behind sharded mutexes so
// workers share one computation.
//
// Determinism: a cached value is the exact output of single_beam_weights
// for its key, so which worker computes it first is unobservable — sweep
// output stays bit-identical across --jobs, cache on or off (enforced by
// sweep_golden_test and kernel_differential_test).
//
// Key: the element count plus the raw IEEE-754 bit patterns of the
// spacing and the angle — the finest "quantization" that can never alias
// two different inputs (lossy rounding would break the bit-compatibility
// contract). The key is fixed-size, so a lookup allocates nothing; full
// keys are compared on lookup, so hash collisions cannot return a wrong
// entry.
//
// Invalidation: entries are immutable and never stale (keys capture every
// input). A shard that exceeds kMaxEntriesPerShard is flushed wholesale —
// a size bound, not a correctness event; the next miss recomputes.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "array/geometry.h"

namespace mmr::array {

/// Process-wide memoization of single_beam_weights, shared by all sweep
/// workers. Thread-safe via sharded mutexes; values are immutable
/// shared_ptrs, so a returned result stays valid across clear()/flushes.
class PatternCache {
 public:
  static constexpr std::size_t kNumShards = 16;
  static constexpr std::size_t kMaxEntriesPerShard = 1024;

  /// The process-wide instance every rewired caller uses.
  static PatternCache& instance();

  PatternCache() = default;
  PatternCache(const PatternCache&) = delete;
  PatternCache& operator=(const PatternCache&) = delete;

  /// Memoized single_beam_weights(ula, phi_rad).
  std::shared_ptr<const CVec> beam_weights(const Ula& ula, double phi_rad);

  /// Drop every entry (outstanding shared_ptrs stay valid).
  void clear();

  /// Disable to force every lookup to recompute (differential tests use
  /// this to compare cached vs uncached paths). Enabled by default.
  void set_enabled(bool enabled);
  bool enabled() const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  Stats stats() const;
  void reset_stats();

 private:
  struct Key {
    std::uint64_t num_elements = 0;
    std::uint64_t spacing_bits = 0;
    std::uint64_t angle_bits = 0;
    bool operator==(const Key& other) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, std::shared_ptr<const CVec>, KeyHash> map;
  };

  std::array<Shard, kNumShards> shards_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace mmr::array
