// Deterministic random number generation.
//
// Every source of randomness in the simulator flows from a single master seed
// through named Fork()s, so experiments are reproducible bit-for-bit and two
// policies evaluated on "the same workload" really see identical arrivals.
//
// The generator is xoshiro256++ seeded via splitmix64 (Mix64) — fast, high
// quality, and trivially embeddable (no <random> engine state-size or
// portability surprises across standard libraries).
#ifndef PARD_COMMON_RNG_H_
#define PARD_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <string_view>

#include "common/check.h"

namespace pard {

// The splitmix64 step and finalizer. A pure function, so the callers that
// hash with it (Rng's seeding, trace sampling, tenant assignment and
// admission) draw from no stream, and it is stable across platforms and
// standard libraries.
inline std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  // Seeds the generator. Equal seeds yield equal streams.
  explicit Rng(std::uint64_t seed);

  // Derives an independent child stream. The child depends on both this
  // generator's seed and `tag`, not on how many numbers were drawn, so
  // adding a consumer never perturbs unrelated streams.
  Rng Fork(std::string_view tag) const;

  // Raw 64 uniform bits.
  //
  // NextU64, NextDouble and Exponential are defined inline below, so the
  // arrival sampler's two draws per thinning candidate cost no call. Their
  // arithmetic is what it was out of line, so every stream is unchanged.
  std::uint64_t NextU64();

  // Uniform in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);

  // Exponential with the given mean (> 0).
  double Exponential(double mean);

  // Standard normal via Box–Muller (no cached spare; stateless per call pair).
  double Normal(double mean, double stddev);

  // Log-normal: exp(Normal(mu, sigma)) where mu/sigma are in log space.
  double LogNormal(double mu, double sigma);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  std::int64_t Poisson(double mean);

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  std::uint64_t s_[4];
  std::uint64_t seed_;
};

inline std::uint64_t Rng::NextU64() {
  const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

inline double Rng::NextDouble() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

inline double Rng::Exponential(double mean) {
  PARD_CHECK(mean > 0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

}  // namespace pard

#endif  // PARD_COMMON_RNG_H_
