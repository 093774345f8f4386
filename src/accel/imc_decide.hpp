// Deciding the IMC encoder's noisy Sign() without drawing the noise.
//
// ImcEncoder::encode_keyed sets component d iff fl(a + σ·z) > 0, with a the
// exact MAC, σ the calibrated error in accumulator units and z =
// util::counter_normal(key, d) = r·cos(θ), r = sqrt(-2·ln u1), θ = 2π·u2.
// Drawing z costs libm log, sqrt and cos. Most components need none of it:
//
//   1. Margin. |z| ≤ util::kCounterNormalBound, so a farther than
//      σ·kCounterNormalBound from zero decides the bit. The radius table
//      below never bounds r above r(u1 = 2^-54) < kCounterNormalBound, so
//      step 3 decides all of these too; the margin is tested on its own
//      only for σ outside the tables' range (0, subnormal, huge, NaN).
//   2. Sign of cos. u2 alone fixes the sign of cos(θ) except in the
//      buckets of u2 that straddle θ = π/2 or 3π/2 (the guard bands). If
//      that sign agrees with the sign of a, noise only pushes a further
//      from zero and the bit is a > 0. If a = 0, the bit is the sign of z.
//   3. Magnitude. Otherwise compare |a| with bounds on |σ·z|: a table
//      indexed by u1's exponent and top mantissa bits bounds r (on the
//      double u1 that counter_normal forms, rounding included — u1 = 1.0
//      gives r = 0), and a table indexed by u2's top bits bounds |cos θ|.
//      Below the lower bound noise cannot flip a; above the upper bound
//      it always does.
//
// Table bounds are widened by a relative 2^-20 and rounded outward to
// float, which covers the libm error in r and cos, the roundings of
// fl(fl(r·cos)·σ) and those of the bound products (in float, then double),
// so a decided bit is the bit the draw would give. The rest (~0.05% of
// components at the paper's operating point: 50 peaks, 3-bit IDs, the
// default device) is left to the caller, which draws through
// counter_normal itself. Every tier evaluates the same predicate, so every
// tier decides the same components.
//
// Tiers follow hd::kernels (active tier, set_active_tier,
// OMSHD_KERNEL_TIER): a branch-free scalar loop, AVX2 (64-bit multiply
// emulated, 4 lanes) and AVX-512 (8 lanes; needs AVX-512DQ for vpmullq
// and AVX-512CD for vplzcntq, else it runs the AVX2 tier).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "hd/kernels.hpp"

namespace oms::accel {

enum class NoiseDecision : std::uint8_t { kClear, kSet, kUndecided };

/// The decision for one component: accumulator a, noise scale sigma and
/// the two counter hashes of its draw (util::counter_normal_hashes). A
/// decided result equals fl(a + sigma·counter_normal_from(h)) > 0.
[[nodiscard]] NoiseDecision decide_noisy_sign(double a, double sigma,
                                              std::uint64_t h1,
                                              std::uint64_t h2) noexcept;

/// The tier the decision kernel runs for a requested tier.
[[nodiscard]] hd::kernels::Tier decide_tier(hd::kernels::Tier tier) noexcept;

/// Decides component d of acc (noise counter_normal(key, d), scale sigma)
/// for every d in [0, acc.size()): writes the decided bits into out
/// (ceil(acc.size() / 64) words, every word overwritten, undecided bits
/// clear) and the undecided components, ascending, into undecided (at
/// least acc.size() slots). Returns the number of undecided components.
std::size_t decide_noisy_signs_tier(hd::kernels::Tier tier,
                                    std::span<const std::int32_t> acc,
                                    double sigma, std::uint64_t key,
                                    std::span<std::uint64_t> out,
                                    std::span<std::uint32_t> undecided) noexcept;

/// The guard bands: inclusive ranges of h2 >> 11 (u2 · 2^53) in which the
/// sign of cos θ is not taken from u2, ascending. One around u2 = 1/4 and
/// one around 3/4.
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>
cosine_guard_bands();

}  // namespace oms::accel
