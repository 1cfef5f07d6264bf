#pragma once
// Deterministic pseudo-random number generation.
//
// Every stochastic component of the library (input-process generation,
// scenario sampling, synthetic benchmark generation) takes an explicit
// 64-bit seed and derives all randomness from an Rng instance, so that
// every experiment in the paper reproduction is bit-reproducible.
//
// The generator is xoshiro256++ (Blackman & Vigna), which is small, fast
// and has no measurable bias in the statistics this library consumes.

#include <array>
#include <cstddef>
#include <cstdint>

namespace tr {

/// xoshiro256++ pseudo-random generator with distribution helpers.
class Rng {
public:
  using result_type = std::uint64_t;

  /// Seeds the generator via splitmix64 so that nearby seeds produce
  /// uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  /// Re-seeds in place (same expansion as the constructor).
  void reseed(std::uint64_t seed);

  /// Raw 64 uniformly distributed bits.
  std::uint64_t next_u64();

  /// UniformInt in [0, bound) without modulo bias. `bound` must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with probability `p` of returning true.
  bool bernoulli(double p);

  /// Exponentially distributed sample with the given rate (mean 1/rate).
  /// Used for the paper's exponential inter-transition times.
  double exponential(double rate);

  /// Fisher–Yates shuffle of [first, last).
  template <typename It>
  void shuffle(It first, It last) {
    const auto n = static_cast<std::uint64_t>(last - first);
    for (std::uint64_t i = n; i > 1; --i) {
      const auto j = next_below(i);
      using std::swap;
      swap(first[i - 1], first[j]);
    }
  }

  /// A child generator with an independent stream, for spawning
  /// per-component RNGs from one master seed.
  Rng split();

  /// Derives the seed of stream `stream` from a master seed, stateless:
  /// derive_stream(s, k) is a fixed function of (s, k), so the k-th
  /// Monte-Carlo replicate gets the same stream no matter which worker
  /// thread runs it or in which order. Distinct (seed, stream) pairs map
  /// to uncorrelated seeds (double splitmix64 mixing), and stream 0 is
  /// decorrelated from Rng(seed) itself.
  static std::uint64_t derive_stream(std::uint64_t seed, std::uint64_t stream);

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace tr
