#include "common/rng.h"

#include <cmath>

#include "common/check.h"

namespace pard {
namespace {

// FNV-1a over the tag bytes, used to derive fork seeds.
std::uint64_t HashTag(std::string_view tag) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : tag) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) {
    s = Mix64(sm);
    sm += 0x9e3779b97f4a7c15ULL;
  }
}

Rng Rng::Fork(std::string_view tag) const {
  return Rng(seed_ ^ Rotl(HashTag(tag), 17));
}

double Rng::Uniform(double lo, double hi) {
  PARD_CHECK(lo <= hi);
  return lo + (hi - lo) * NextDouble();
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  PARD_CHECK(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // Full 64-bit range.
    return static_cast<std::int64_t>(NextU64());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t v;
  do {
    v = NextU64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::Normal(double mean, double stddev) {
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  const double u2 = NextDouble();
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

std::int64_t Rng::Poisson(double mean) {
  PARD_CHECK(mean >= 0);
  if (mean == 0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation, adequate for arrival-count sampling.
    const double v = Normal(mean, std::sqrt(mean));
    return v < 0 ? 0 : static_cast<std::int64_t>(std::llround(v));
  }
  const double l = std::exp(-mean);
  std::int64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= NextDouble();
  } while (p > l);
  return k - 1;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

}  // namespace pard
