// Deterministic, seedable PRNG used by all workload generators and property
// tests. We avoid <random> engines in the hot path for speed and for
// bit-exact reproducibility across standard library implementations.
#ifndef SKL_COMMON_RANDOM_H_
#define SKL_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace skl {

/// xoshiro256** seeded via splitmix64. Fast, high-quality, reproducible.
class Rng {
 public:
  /// Seeds the generator; identical seeds yield identical streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform value in [0, bound). Precondition: bound > 0.
  uint64_t NextBelow(uint64_t bound);

  /// Uniform value in [lo, hi] inclusive. Precondition: lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool NextBool(double p = 0.5);

  /// Geometric-ish count >= 1 with mean approximately `mean` (mean >= 1).
  /// Used to sample fork/loop replication counts.
  uint32_t NextCount(double mean);

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    if (items->empty()) return;
    for (size_t i = items->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBelow(i + 1));
      std::swap((*items)[i], (*items)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

/// splitmix64 step; exposed for seeding derived generators.
uint64_t SplitMix64(uint64_t* state);

/// Stateless splitmix64 finalizer: full-avalanche mixing of one 64-bit
/// value. The hash-distribution workhorse for sequential ids (registry
/// shard selection, client retry jitter), where unmixed low bits would
/// correlate with allocation order.
uint64_t Mix64(uint64_t x);

}  // namespace skl

#endif  // SKL_COMMON_RANDOM_H_
