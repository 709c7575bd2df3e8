#pragma once
// Deterministic pseudo-random source (xoshiro256**, seeded via splitmix64).
//
// Every stochastic element of a scenario draws from one Rng owned by the
// experiment, so a (scenario, seed) pair fully determines the run.

#include <cassert>
#include <cmath>
#include <cstdint>

namespace ampom::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the xoshiro state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97f4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  [[nodiscard]] std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound). Unbiased via rejection.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound) {
    assert(bound > 0);
    if ((bound & (bound - 1)) == 0) {
      // 2^64 is a multiple of a power-of-two bound, so the rejection
      // threshold below is 0 and r % bound is r & (bound - 1): the same
      // value, without two 64-bit divisions.
      return next() & (bound - 1);
    }
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) {
        return r % bound;
      }
    }
  }

  // Uniform double in [0, 1).
  [[nodiscard]] double uniform_real() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi) {
    return lo + (hi - lo) * uniform_real();
  }

  // Exponential with the given mean (> 0).
  [[nodiscard]] double exponential(double mean) {
    assert(mean > 0.0);
    double u = uniform_real();
    if (u <= 0.0) {
      u = 0x1.0p-53;
    }
    return -mean * std::log(u);
  }

  [[nodiscard]] bool bernoulli(double p) { return uniform_real() < p; }

  // Derive an independent child stream (for sub-components).
  [[nodiscard]] Rng fork() { return Rng{next() ^ 0xA5A5A5A5DEADBEEFULL}; }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace ampom::sim
