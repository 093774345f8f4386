// Deterministic pseudo-random number generation for reproducible experiments.
//
// Two generators are provided:
//  * SplitMix64  — tiny stateless-style mixer; also usable as a counter-based
//    hash RNG (hash(seed, counter)), which lets hypervector banks generate
//    their contents lazily and deterministically without storing them.
//  * Xoshiro256StarStar — fast general-purpose stream generator used wherever
//    a long sequence is consumed (noise models, synthetic data).
//
// Neither generator is cryptographic; both are fully deterministic given a
// 64-bit seed, which is what reproducibility of every table/figure requires.
#pragma once

#include <cstdint>
#include <limits>

namespace oms::util {

/// Mixes a 64-bit value into a well-distributed 64-bit hash (finalizer from
/// the SplitMix64 generator). Useful as a counter-based RNG:
/// `mix64(seed ^ mix64(counter))` yields independent streams per counter.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines a seed with one or two stream identifiers into an independent
/// 64-bit hash. Used to derive per-object sub-seeds from a master seed.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t seed,
                                                   std::uint64_t a,
                                                   std::uint64_t b = 0) noexcept {
  return mix64(seed ^ mix64(a ^ mix64(b)));
}

/// Bound on |counter_normal(seed, counter)| over every key. Box-Muller's
/// radius sqrt(-2·ln u1) is largest at the smallest u1, and u1 below is at
/// least (0 + 0.5)·2^-53 = 2^-54, so |z| ≤ sqrt(-2·ln 2^-54) =
/// sqrt(108·ln 2) ≈ 8.6522 (|cos| ≤ 1). 8.66 leaves a margin far wider
/// than the few-ulp error of the libm log/sqrt/cos. Callers use it to
/// decide draws they can skip exactly: for σ ≥ 0, x + z·σ lies within
/// x ± kCounterNormalBound·σ, and IEEE multiply and add are monotone.
inline constexpr double kCounterNormalBound = 8.66;

// counter_normal is Box-Muller over two counter hashes, z = r·cos(θ) with
// r = sqrt(-2·ln u1) and θ = 2π·u2. The steps are exposed one by one so
// code that decides a draw's effect without making it (the IMC encoder's
// noise bounds, accel/imc_decide.hpp) reads the very doubles the draw
// would form.

/// The two hashes behind counter_normal(seed, counter).
struct CounterNormalHashes {
  std::uint64_t h1;  ///< Feeds u1, the radius.
  std::uint64_t h2;  ///< Feeds u2, the angle.
};

[[nodiscard]] constexpr CounterNormalHashes counter_normal_hashes(
    std::uint64_t seed, std::uint64_t counter) noexcept {
  const std::uint64_t h1 = mix64(seed ^ mix64(counter));
  return {h1, mix64(h1 ^ 0xd1b54a32d192ed03ULL)};
}

/// u1 in (0, 1]. (h1 >> 11) + 0.5 is exact below 2^52 and rounds to even
/// above, so h1 >> 11 = 2^53 − 1 gives exactly 1.0, and r = 0.
[[nodiscard]] constexpr double counter_normal_u1(std::uint64_t h1) noexcept {
  return (static_cast<double>(h1 >> 11) + 0.5) * 0x1.0p-53;
}

/// u2 in [0, 1), exact: (h2 >> 11) · 2^-53.
[[nodiscard]] constexpr double counter_normal_u2(std::uint64_t h2) noexcept {
  return static_cast<double>(h2 >> 11) * 0x1.0p-53;
}

[[nodiscard]] inline double counter_normal_radius(double u1) noexcept {
  return __builtin_sqrt(-2.0 * __builtin_log(u1));
}

/// θ = fl(2π·u2), with 2π rounded to the nearest double (just below 2π).
[[nodiscard]] constexpr double counter_normal_angle(double u2) noexcept {
  return 6.283185307179586 * u2;
}

/// The draw from its two hashes: counter_normal(seed, c) ==
/// counter_normal_from(counter_normal_hashes(seed, c)).
[[nodiscard]] inline double counter_normal_from(
    CounterNormalHashes h) noexcept {
  return counter_normal_radius(counter_normal_u1(h.h1)) *
         __builtin_cos(counter_normal_angle(counter_normal_u2(h.h2)));
}

/// One standard-normal draw keyed by (seed, counter): deterministic,
/// stateless, and safe to evaluate from any thread in any order. Used
/// where simulation noise must not depend on scheduling (e.g. parallel
/// statistical RRAM scoring). |result| ≤ kCounterNormalBound.
[[nodiscard]] inline double counter_normal(std::uint64_t seed,
                                           std::uint64_t counter) noexcept {
  return counter_normal_from(counter_normal_hashes(seed, counter));
}

/// SplitMix64: a 64-bit generator with a single word of state. Primarily
/// used to seed Xoshiro256StarStar and for short deterministic streams.
class SplitMix64 {
 public:
  constexpr explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  [[nodiscard]] constexpr std::uint64_t next() noexcept {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** by Blackman & Vigna: 256-bit state, period 2^256-1,
/// excellent statistical quality for simulation workloads.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  constexpr explicit Xoshiro256(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next(); }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] constexpr double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0.
  [[nodiscard]] constexpr std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's multiply-shift rejection-free approximation is fine here:
    // bias is < 2^-64 * n, negligible for simulation purposes.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * n) >> 64);
  }

  /// Standard normal via Marsaglia polar method (exact, no table).
  [[nodiscard]] double normal() noexcept {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u = 0.0;
    double v = 0.0;
    double s = 0.0;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = sqrt_impl(-2.0 * log_impl(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return u * m;
  }

  /// Normal with given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept {
    return mean + stddev * normal();
  }

  /// Bernoulli draw with probability p of returning true.
  [[nodiscard]] constexpr bool bernoulli(double p) noexcept {
    return uniform() < p;
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  // Thin indirections so <cmath> stays out of this header's constexpr parts.
  [[nodiscard]] static double sqrt_impl(double x) noexcept;
  [[nodiscard]] static double log_impl(double x) noexcept;

  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool have_spare_ = false;
};

inline double Xoshiro256::sqrt_impl(double x) noexcept {
  return __builtin_sqrt(x);
}
inline double Xoshiro256::log_impl(double x) noexcept {
  return __builtin_log(x);
}

}  // namespace oms::util
