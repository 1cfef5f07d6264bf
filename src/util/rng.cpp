#include "util/rng.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tr {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // xoshiro must not start from the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  TR_ASSERT(bound > 0);
  // Lemire's nearly-divisionless method with rejection.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    const unsigned __int128 m =
        static_cast<unsigned __int128>(r) * static_cast<unsigned __int128>(bound);
    if (static_cast<std::uint64_t>(m) >= threshold) {
      return static_cast<std::uint64_t>(m >> 64);
    }
  }
}

double Rng::next_double() {
  // 53 top bits -> [0,1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  TR_ASSERT(lo <= hi);
  return lo + (hi - lo) * next_double();
}

bool Rng::bernoulli(double p) { return next_double() < p; }

double Rng::exponential(double rate) {
  TR_ASSERT(rate > 0.0);
  // Inversion; 1 - u avoids log(0).
  return -std::log(1.0 - next_double()) / rate;
}

std::uint64_t Rng::derive_stream(std::uint64_t seed, std::uint64_t stream) {
  // Two full splitmix64 rounds over a mix of both words. A single round
  // of either word alone would leave (seed, stream) and (seed', stream')
  // collisions trivially constructible; after mixing the first round's
  // output with an odd-multiplied stream index, any colliding pair must
  // invert splitmix64.
  std::uint64_t x = seed;
  std::uint64_t h = splitmix64(x);
  x = h ^ ((stream + 1) * 0xd1b54a32d192ed03ULL);
  return splitmix64(x);
}

Rng Rng::split() {
  Rng child(0);
  child.state_[0] = next_u64();
  child.state_[1] = next_u64();
  child.state_[2] = next_u64();
  child.state_[3] = next_u64();
  if (child.state_[0] == 0 && child.state_[1] == 0 && child.state_[2] == 0 &&
      child.state_[3] == 0) {
    child.state_[0] = 1;
  }
  return child;
}

}  // namespace tr
