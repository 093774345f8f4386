// The IMC encoder's noise decision (see accel/imc_decide.hpp): bound
// tables, the scalar predicate, and its AVX2 / AVX-512 forms.
//
// Every tier evaluates the same predicate (decide_one) on the same floats
// and doubles, with multiplies and compares only, so no tier can contract
// anything into an FMA and all tiers decide the same components. The draw
// itself never runs here: undecided components go back to the caller.
#include "accel/imc_decide.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(OMSHD_DISABLE_SIMD)
#define OMSHD_X86_SIMD 1
#include <immintrin.h>
#endif

namespace oms::accel {
namespace {

using hd::kernels::Tier;

// Radius table: row e = min(lzcnt(h1), kRadiusRows), column = the
// kRadiusBits bits of h1 after its leading one. Rows below kRadiusRows
// cover the (h1 >> 11) range of one exponent of u1 split kRadiusCols
// ways; row kRadiusRows covers u1 < 2^-kRadiusRows (probability 2^-20)
// whole. The AVX2 tier derives e from the top 24 bits of h1, so
// kRadiusRows must stay ≤ 24.
constexpr unsigned kRadiusRows = 20;
constexpr unsigned kRadiusBits = 7;
constexpr unsigned kRadiusCols = 1u << kRadiusBits;
// Cosine table: one bucket per value of the top kCosBits bits of h2.
constexpr unsigned kCosBits = 10;
constexpr unsigned kCosBuckets = 1u << kCosBits;
// Relative widening of every bound: far above the ~2^-52 libm error, the
// 2^-53 roundings of the draw's fl(fl(r·cos)·σ) and the 2^-24 and 2^-53
// roundings of the bound products themselves.
constexpr double kSlack = 0x1.0p-20;
// σ range where the bound products neither underflow nor overflow; any
// other σ (0, subnormal, huge, NaN) falls back to the margin alone.
constexpr double kMinSigma = 0x1.0p-500;
constexpr double kMaxSigma = 0x1.0p+500;

/// Bound pairs packed as two floats per 64-bit word (lo in the low half),
/// so one 64-bit gather fetches both. A cosine entry's lo carries the sign
/// of cos θ over the bucket: +|cos|min, −|cos|min, or +0 in a guard band.
struct Tables {
  std::uint64_t radius[(kRadiusRows + 1) * kRadiusCols];
  std::uint64_t cosine[kCosBuckets];
};

float round_down(double x) {
  float f = static_cast<float>(x);
  if (static_cast<double>(f) > x) f = std::nextafter(f, -1.0f);
  return f;
}

float round_up(double x) {
  float f = static_cast<float>(x);
  if (static_cast<double>(f) < x) {
    f = std::nextafter(f, std::numeric_limits<float>::infinity());
  }
  return f;
}

std::uint64_t pack(float lo, float hi) {
  return static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(lo)) |
         static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(hi)) << 32;
}

/// r exactly as counter_normal forms it for h1 >> 11 = k. At k = 2^53 − 1
/// u1 rounds to 1.0 and r = −0; report that as +0.
double radius_at(std::uint64_t k) {
  return std::max(0.0, util::counter_normal_radius(
                           util::counter_normal_u1(k << 11)));
}

double angle_at(std::uint64_t j) {
  return util::counter_normal_angle(util::counter_normal_u2(j << 11));
}

Tables build_tables() {
  Tables t{};
  // r falls as k = h1 >> 11 rises, so a bucket [k_lo, k_hi] spans
  // [r(k_hi), r(k_lo)].
  for (unsigned e = 0; e <= kRadiusRows; ++e) {
    for (unsigned m = 0; m < kRadiusCols; ++m) {
      std::uint64_t k_lo = 0;
      std::uint64_t k_hi = (std::uint64_t{1} << (53 - kRadiusRows)) - 1;
      if (e < kRadiusRows) {
        const unsigned step = 52 - e - kRadiusBits;
        k_lo = (std::uint64_t{1} << (52 - e)) +
               (static_cast<std::uint64_t>(m) << step);
        k_hi = k_lo + (std::uint64_t{1} << step) - 1;
      }
      t.radius[e * kRadiusCols + m] =
          pack(round_down(radius_at(k_hi) * (1.0 - kSlack)),
               round_up(radius_at(k_lo) * (1.0 + kSlack)));
    }
  }
  // θ ∈ [θ(j_lo), θ(j_hi)], narrower than π: |cos| takes its extremes at
  // the ends unless θ crosses a zero of cos (min 0, sign unknown) or of
  // sin (max 1).
  const std::uint64_t width = std::uint64_t{1} << (53 - kCosBits);
  for (std::uint64_t q = 0; q < kCosBuckets; ++q) {
    const double x0 = angle_at(q * width);
    const double x1 = angle_at(q * width + width - 1);
    const double c0 = std::cos(x0);
    const double c1 = std::cos(x1);
    const bool sin_crosses = !(std::sin(x0) > 0.0 && std::sin(x1) > 0.0) &&
                             !(std::sin(x0) < 0.0 && std::sin(x1) < 0.0);
    const double hi =
        sin_crosses ? 1.0 : std::max(std::fabs(c0), std::fabs(c1));
    float lo = 0.0f;
    if ((c0 > 0.0) == (c1 > 0.0)) {
      lo = round_down(std::min(std::fabs(c0), std::fabs(c1)) *
                      (1.0 - kSlack));
      if (c0 < 0.0) lo = -lo;
    }
    t.cosine[q] = pack(lo, round_up(hi * (1.0 + kSlack)));
  }
  return t;
}

const Tables& tables() {
  static const Tables t = build_tables();
  return t;
}

[[nodiscard]] inline unsigned radius_index(std::uint64_t h1) noexcept {
  const unsigned e = std::min<unsigned>(
      static_cast<unsigned>(std::countl_zero(h1)), kRadiusRows);
  return (e << kRadiusBits) |
         (static_cast<unsigned>((h1 << e) >> (63 - kRadiusBits)) &
          (kRadiusCols - 1));
}

[[nodiscard]] inline unsigned cosine_index(std::uint64_t h2) noexcept {
  return static_cast<unsigned>(h2 >> (64 - kCosBits));
}

[[nodiscard]] inline float lo_of(std::uint64_t p) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(p));
}
[[nodiscard]] inline float hi_of(std::uint64_t p) noexcept {
  return std::bit_cast<float>(static_cast<std::uint32_t>(p >> 32));
}

/// The predicate every tier evaluates, for σ within the tables' range.
/// Returns the bit in bit 0 and "decided" in bit 1.
///   quiet: |σ·z| < |a| for sure — noise cannot flip a, the bit is a > 0.
///          Every component the margin decides is quiet: no radius bound
///          exceeds r(k = 0) · (1 + 2^-20) ≈ 8.6523 < kCounterNormalBound.
///   agree: a and cos θ have the same sign (both nonzero) — the bit is
///          a > 0.
///   loud:  |σ·z| > |a| for sure — the bit is the sign of cos θ (a = 0
///          included; the lower bound is 0 in a guard band and in the one
///          radius bucket where u1 can round to 1.0).
/// The bound products run in float (2^-24 per rounding, far inside the
/// 2^-20 table slack), then in double against σ.
[[nodiscard]] inline unsigned decide_one(double a, double sigma,
                                         std::uint64_t rp,
                                         std::uint64_t cp) noexcept {
  const float cl = lo_of(cp);
  const auto cl_bits = static_cast<std::int32_t>(cp);  // its sign: cos θ's
  const float lower = lo_of(rp) * std::fabs(cl);
  const float upper = hi_of(rp) * hi_of(cp);
  const double abs_a = std::fabs(a);
  const bool quiet = static_cast<double>(upper) * sigma < abs_a;
  const bool loud = static_cast<double>(lower) * sigma > abs_a;
  const bool pos = a > 0.0;
  const bool cpos = cl_bits > 0;
  const bool by_a = quiet | (pos & cpos) | ((a < 0.0) & (cl_bits < 0));
  const bool bit = (by_a & pos) | (!by_a & loud & cpos);
  return static_cast<unsigned>(bit) |
         static_cast<unsigned>(by_a | loud) << 1;
}

[[nodiscard]] inline bool bounds_apply(double sigma) noexcept {
  return sigma >= kMinSigma && sigma <= kMaxSigma;
}

/// Margin alone (σ outside the bound tables' range): the PR-14 rule.
std::size_t decide_margin_only(const std::int32_t* acc, std::size_t dim,
                               double margin, std::uint64_t* out,
                               std::uint32_t* undecided) noexcept {
  std::size_t n = 0;
  for (std::size_t w = 0; w < (dim + 63) / 64; ++w) out[w] = 0;
  for (std::size_t d = 0; d < dim; ++d) {
    const double a = static_cast<double>(acc[d]);
    if (a - margin > 0.0) {
      out[d >> 6] |= std::uint64_t{1} << (d & 63);
    } else if (a + margin > 0.0) {
      undecided[n++] = static_cast<std::uint32_t>(d);
    }
  }
  return n;
}

/// Branch-free scalar tier over words [w_first, ceil(dim / 64)). Each
/// word hashes its components first, then decides them: the hash chains
/// are independent, so they overlap instead of queueing behind the
/// lookups.
std::size_t decide_scalar(const std::int32_t* acc, std::size_t dim,
                          std::size_t w_first, double sigma,
                          std::uint64_t key, std::uint64_t* out,
                          std::uint32_t* undecided, std::size_t n,
                          const Tables& t) noexcept {
  std::uint64_t rp[64];
  std::uint64_t cp[64];
  for (std::size_t w = w_first; w < (dim + 63) / 64; ++w) {
    const std::size_t first = 64 * w;
    const std::size_t count = std::min<std::size_t>(64, dim - first);
    for (std::size_t j = 0; j < count; ++j) {
      const util::CounterNormalHashes h =
          util::counter_normal_hashes(key, first + j);
      rp[j] = t.radius[radius_index(h.h1)];
      cp[j] = t.cosine[cosine_index(h.h2)];
    }
    std::uint64_t bits = 0;
    for (std::size_t j = 0; j < count; ++j) {
      const unsigned r = decide_one(static_cast<double>(acc[first + j]),
                                    sigma, rp[j], cp[j]);
      bits |= static_cast<std::uint64_t>(r & 1) << j;
      undecided[n] = static_cast<std::uint32_t>(first + j);  // kept if open
      n += (r >> 1) ^ 1;
    }
    out[w] = bits;
  }
  return n;
}

#ifdef OMSHD_X86_SIMD

constexpr std::uint64_t kMixAdd = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kMixMul1 = 0xbf58476d1ce4e5b9ULL;
constexpr std::uint64_t kMixMul2 = 0x94d049bb133111ebULL;
constexpr std::uint64_t kH2Salt = 0xd1b54a32d192ed03ULL;

/// Appends the components of group `base` whose bit in `open` is set.
inline std::size_t append_undecided(unsigned open, std::size_t base,
                                    std::uint32_t* undecided,
                                    std::size_t n) noexcept {
  while (open != 0) {
    undecided[n++] =
        static_cast<std::uint32_t>(base + std::countr_zero(open));
    open &= open - 1;
  }
  return n;
}

// Both SIMD tiers run each 64-component word in two passes, like the
// scalar tier: hash and look up every component (independent chains of
// 64-bit multiplies, free to overlap), then decide. Per lane they compute
// decide_one's values: the float bound products of the packed pairs (one
// multiply of the pair vectors, cl's sign bit cleared), widened to double
// and scaled by σ; the signs of a as doubles and of cl as the signed
// integer in its bits.

/// Clears the sign bit of each pair's low float (cl).
constexpr long long kLowAbsMask = static_cast<long long>(0xFFFFFFFF7FFFFFFFULL);

// --- AVX2: 4 lanes, 64-bit multiply from three 32×32 products ---------------

/// a · b mod 2^64 with b = (b_hi << 32) | b_lo given as two lane vectors.
__attribute__((target("avx2"), always_inline)) inline __m256i mul64_avx2(
    __m256i a, __m256i b_lo, __m256i b_hi) noexcept {
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(a, 32), b_lo),
                       _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(_mm256_mul_epu32(a, b_lo),
                          _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"), always_inline)) inline __m256i mix64_avx2(
    __m256i x) noexcept {
  const __m256i m1_lo = _mm256_set1_epi64x(kMixMul1 & 0xffffffffULL);
  const __m256i m1_hi = _mm256_set1_epi64x(kMixMul1 >> 32);
  const __m256i m2_lo = _mm256_set1_epi64x(kMixMul2 & 0xffffffffULL);
  const __m256i m2_hi = _mm256_set1_epi64x(kMixMul2 >> 32);
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(static_cast<long long>(kMixAdd)));
  x = mul64_avx2(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)), m1_lo, m1_hi);
  x = mul64_avx2(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)), m2_lo, m2_hi);
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

/// The low (sel = 0,2,4,6) or high (1,3,5,7) float of four packed pairs,
/// widened to double.
__attribute__((target("avx2"), always_inline)) inline __m256d halves_avx2(
    __m256i pairs, __m256i sel) noexcept {
  return _mm256_cvtps_pd(_mm_castsi128_ps(
      _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(pairs, sel))));
}

__attribute__((target("avx2"))) std::size_t decide_avx2(
    const std::int32_t* acc, std::size_t words, double sigma,
    std::uint64_t key, std::uint64_t* out, std::uint32_t* undecided,
    const Tables& t) noexcept {
  const __m256i lane = _mm256_setr_epi64x(0, 1, 2, 3);
  const __m256i key_v = _mm256_set1_epi64x(static_cast<long long>(key));
  const __m256i salt = _mm256_set1_epi64x(static_cast<long long>(kH2Salt));
  const __m256i rows = _mm256_set1_epi64x(kRadiusRows);
  const __m256i col_mask = _mm256_set1_epi64x(kRadiusCols - 1);
  // 2^52 as a double's bits: OR-ing a 24-bit value in and subtracting
  // 2^52 converts it exactly; its exponent then gives lzcnt(h1) < 24.
  const __m256i two52_bits = _mm256_set1_epi64x(0x4330000000000000LL);
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256i lzcnt_base = _mm256_set1_epi64x(1023 + 23);
  const __m256i sel_lo = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i sel_hi = _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7);
  const __m256i low_abs = _mm256_set1_epi64x(kLowAbsMask);
  const __m256i zero_i = _mm256_setzero_si256();
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sigma_v = _mm256_set1_pd(sigma);
  const auto* radius = reinterpret_cast<const long long*>(t.radius);
  const auto* cosine = reinterpret_cast<const long long*>(t.cosine);
  alignas(32) std::uint64_t rps[64];
  alignas(32) std::uint64_t cps[64];
  std::size_t n = 0;
  for (std::size_t w = 0; w < words; ++w) {
    for (unsigned g = 0; g < 16; ++g) {
      const __m256i d = _mm256_add_epi64(
          _mm256_set1_epi64x(static_cast<long long>(64 * w + 4 * g)), lane);
      const __m256i h1 = mix64_avx2(_mm256_xor_si256(key_v, mix64_avx2(d)));
      const __m256i h2 = mix64_avx2(_mm256_xor_si256(h1, salt));
      const __m256d top = _mm256_sub_pd(
          _mm256_castsi256_pd(
              _mm256_or_si256(_mm256_srli_epi64(h1, 40), two52_bits)),
          two52);
      const __m256i e = _mm256_min_epu32(
          _mm256_sub_epi64(lzcnt_base,
                           _mm256_srli_epi64(_mm256_castpd_si256(top), 52)),
          rows);
      const __m256i ridx = _mm256_or_si256(
          _mm256_slli_epi64(e, kRadiusBits),
          _mm256_and_si256(
              _mm256_srli_epi64(_mm256_sllv_epi64(h1, e), 63 - kRadiusBits),
              col_mask));
      _mm256_store_si256(reinterpret_cast<__m256i*>(rps + 4 * g),
                         _mm256_i64gather_epi64(radius, ridx, 8));
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(cps + 4 * g),
          _mm256_i64gather_epi64(cosine, _mm256_srli_epi64(h2, 64 - kCosBits),
                                 8));
    }
    std::uint64_t bits = 0;
    for (unsigned g = 0; g < 16; ++g) {
      const std::size_t base = 64 * w + 4 * g;
      const __m256i rp =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(rps + 4 * g));
      const __m256i cp =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(cps + 4 * g));
      const __m256i prod = _mm256_castps_si256(
          _mm256_mul_ps(_mm256_castsi256_ps(rp),
                        _mm256_castsi256_ps(_mm256_and_si256(cp, low_abs))));
      const __m256d a = _mm256_cvtepi32_pd(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + base)));
      const __m256d abs_a = _mm256_andnot_pd(sign, a);
      const __m256d quiet = _mm256_cmp_pd(
          _mm256_mul_pd(halves_avx2(prod, sel_hi), sigma_v), abs_a,
          _CMP_LT_OQ);
      const __m256d loud = _mm256_cmp_pd(
          _mm256_mul_pd(halves_avx2(prod, sel_lo), sigma_v), abs_a,
          _CMP_GT_OQ);
      const __m256i cl_top = _mm256_slli_epi64(cp, 32);
      const __m256d cpos =
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(cl_top, zero_i));
      const __m256d cneg =
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(zero_i, cl_top));
      const __m256d pos = _mm256_cmp_pd(a, zero, _CMP_GT_OQ);
      const __m256d by_a = _mm256_or_pd(
          _mm256_or_pd(quiet, _mm256_and_pd(pos, cpos)),
          _mm256_and_pd(_mm256_cmp_pd(a, zero, _CMP_LT_OQ), cneg));
      const __m256d bit = _mm256_or_pd(
          _mm256_and_pd(by_a, pos),
          _mm256_andnot_pd(by_a, _mm256_and_pd(loud, cpos)));
      bits |= static_cast<std::uint64_t>(_mm256_movemask_pd(bit)) << (4 * g);
      const unsigned open =
          static_cast<unsigned>(_mm256_movemask_pd(_mm256_or_pd(by_a, loud))) ^
          0xFu;
      if (open != 0) n = append_undecided(open, base, undecided, n);
    }
    out[w] = bits;
  }
  return n;
}

// --- AVX-512: 8 lanes, vpmullq (DQ), vplzcntq (CD) --------------------------

// GCC 12 warns inside its own AVX-512 intrinsics (their _mm512_undefined_*
// self-initialization) once they are inlined here; the warning is false.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

__attribute__((target("avx512f,avx512dq,avx512cd"), always_inline)) inline __m512i
mix64_avx512(__m512i x) noexcept {
  x = _mm512_add_epi64(x, _mm512_set1_epi64(static_cast<long long>(kMixAdd)));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 30)),
                         _mm512_set1_epi64(static_cast<long long>(kMixMul1)));
  x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64(x, 27)),
                         _mm512_set1_epi64(static_cast<long long>(kMixMul2)));
  return _mm512_xor_si512(x, _mm512_srli_epi64(x, 31));
}

/// The low float of eight packed pairs, widened to double.
__attribute__((target("avx512f,avx512dq,avx512cd"), always_inline)) inline __m512d
lo_halves_avx512(__m512i pairs) noexcept {
  return _mm512_cvtps_pd(_mm256_castsi256_ps(_mm512_cvtepi64_epi32(pairs)));
}

__attribute__((target("avx512f,avx512dq,avx512cd"))) std::size_t decide_avx512(
    const std::int32_t* acc, std::size_t words, double sigma,
    std::uint64_t key, std::uint64_t* out, std::uint32_t* undecided,
    const Tables& t) noexcept {
  const __m512i lane = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i key_v = _mm512_set1_epi64(static_cast<long long>(key));
  const __m512i salt = _mm512_set1_epi64(static_cast<long long>(kH2Salt));
  const __m512i rows = _mm512_set1_epi64(kRadiusRows);
  const __m512i col_mask = _mm512_set1_epi64(kRadiusCols - 1);
  const __m512i low_abs = _mm512_set1_epi64(kLowAbsMask);
  const __m512i zero_i = _mm512_setzero_si512();
  const __m512d zero = _mm512_setzero_pd();
  const __m512d sigma_v = _mm512_set1_pd(sigma);
  alignas(64) std::uint64_t rps[64];
  alignas(64) std::uint64_t cps[64];
  std::size_t n = 0;
  for (std::size_t w = 0; w < words; ++w) {
    for (unsigned g = 0; g < 8; ++g) {
      const __m512i d = _mm512_add_epi64(
          _mm512_set1_epi64(static_cast<long long>(64 * w + 8 * g)), lane);
      const __m512i h1 =
          mix64_avx512(_mm512_xor_si512(key_v, mix64_avx512(d)));
      const __m512i h2 = mix64_avx512(_mm512_xor_si512(h1, salt));
      const __m512i e = _mm512_min_epu64(_mm512_lzcnt_epi64(h1), rows);
      const __m512i ridx = _mm512_or_si512(
          _mm512_slli_epi64(e, kRadiusBits),
          _mm512_and_si512(
              _mm512_srli_epi64(_mm512_sllv_epi64(h1, e), 63 - kRadiusBits),
              col_mask));
      _mm512_store_si512(rps + 8 * g,
                         _mm512_i64gather_epi64(ridx, t.radius, 8));
      _mm512_store_si512(
          cps + 8 * g,
          _mm512_i64gather_epi64(_mm512_srli_epi64(h2, 64 - kCosBits),
                                 t.cosine, 8));
    }
    std::uint64_t bits = 0;
    for (unsigned g = 0; g < 8; ++g) {
      const std::size_t base = 64 * w + 8 * g;
      const __m512i cp = _mm512_load_si512(cps + 8 * g);
      const __m512i prod = _mm512_castps_si512(
          _mm512_mul_ps(_mm512_castsi512_ps(_mm512_load_si512(rps + 8 * g)),
                        _mm512_castsi512_ps(_mm512_and_si512(cp, low_abs))));
      const __m512d a = _mm512_cvtepi32_pd(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + base)));
      const __m512d abs_a = _mm512_abs_pd(a);
      const unsigned quiet = _mm512_cmp_pd_mask(
          _mm512_mul_pd(lo_halves_avx512(_mm512_srli_epi64(prod, 32)),
                        sigma_v),
          abs_a, _CMP_LT_OQ);
      const unsigned loud = _mm512_cmp_pd_mask(
          _mm512_mul_pd(lo_halves_avx512(prod), sigma_v), abs_a, _CMP_GT_OQ);
      const __m512i cl_top = _mm512_slli_epi64(cp, 32);
      const unsigned cpos = _mm512_cmpgt_epi64_mask(cl_top, zero_i);
      const unsigned cneg = _mm512_cmplt_epi64_mask(cl_top, zero_i);
      const unsigned pos = _mm512_cmp_pd_mask(a, zero, _CMP_GT_OQ);
      const unsigned by_a =
          quiet | (pos & cpos) |
          (_mm512_cmp_pd_mask(a, zero, _CMP_LT_OQ) & cneg);
      bits |= static_cast<std::uint64_t>((by_a & pos) | (~by_a & loud & cpos))
              << (8 * g);
      const unsigned open = ~(by_a | loud) & 0xFFu;
      if (open != 0) n = append_undecided(open, base, undecided, n);
    }
    out[w] = bits;
  }
  return n;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

bool has_avx512_decide() noexcept {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512dq") != 0 &&
           __builtin_cpu_supports("avx512cd") != 0;
  }();
  return ok;
}

#endif  // OMSHD_X86_SIMD

}  // namespace

NoiseDecision decide_noisy_sign(double a, double sigma, std::uint64_t h1,
                                std::uint64_t h2) noexcept {
  const double margin = sigma * util::kCounterNormalBound;
  unsigned r = 0;
  if (bounds_apply(sigma)) {
    const Tables& t = tables();
    r = decide_one(a, sigma, t.radius[radius_index(h1)],
                   t.cosine[cosine_index(h2)]);
  } else if (a - margin > 0.0) {
    r = 3;
  } else if (!(a + margin > 0.0)) {
    r = 2;
  }
  if ((r & 2) == 0) return NoiseDecision::kUndecided;
  return (r & 1) != 0 ? NoiseDecision::kSet : NoiseDecision::kClear;
}

Tier decide_tier(Tier tier) noexcept {
  if (static_cast<int>(tier) > static_cast<int>(hd::kernels::best_supported())) {
    tier = hd::kernels::best_supported();
  }
#ifdef OMSHD_X86_SIMD
  if (tier == Tier::kAvx512 && !has_avx512_decide()) tier = Tier::kAvx2;
#endif
  return tier;
}

std::size_t decide_noisy_signs_tier(Tier tier,
                                    std::span<const std::int32_t> acc,
                                    double sigma, std::uint64_t key,
                                    std::span<std::uint64_t> out,
                                    std::span<std::uint32_t> undecided) noexcept {
  const std::size_t dim = acc.size();
  if (!bounds_apply(sigma)) {
    return decide_margin_only(acc.data(), dim,
                              sigma * util::kCounterNormalBound, out.data(),
                              undecided.data());
  }
  const Tables& t = tables();
  std::size_t n = 0;
  std::size_t words = 0;
#ifdef OMSHD_X86_SIMD
  switch (decide_tier(tier)) {
    case Tier::kAvx512:
      words = dim / 64;
      n = decide_avx512(acc.data(), words, sigma, key, out.data(),
                        undecided.data(), t);
      break;
    case Tier::kAvx2:
      words = dim / 64;
      n = decide_avx2(acc.data(), words, sigma, key, out.data(),
                      undecided.data(), t);
      break;
    case Tier::kScalar:
      break;
  }
#else
  (void)tier;
#endif
  return decide_scalar(acc.data(), dim, words, sigma, key,
                       out.data(), undecided.data(), n, t);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> cosine_guard_bands() {
  const Tables& t = tables();
  const std::uint64_t width = std::uint64_t{1} << (53 - kCosBits);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> bands;
  for (std::uint64_t q = 0; q < kCosBuckets; ++q) {
    if (lo_of(t.cosine[q]) != 0.0) continue;
    if (!bands.empty() && bands.back().second + 1 == q * width) {
      bands.back().second = q * width + width - 1;
    } else {
      bands.emplace_back(q * width, q * width + width - 1);
    }
  }
  return bands;
}

}  // namespace oms::accel
