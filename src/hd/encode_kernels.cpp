// ID-Level encoder kernels (declared in hd/kernels.hpp): the packed-row
// int16 accumulate and the Sign() binarize, scalar / AVX2 / AVX-512BW.
//
// A packed row holds 16 components per 64-bit word, component k of a word
// in bits [4k, 4k + 4). Read as bytes (little-endian), byte j holds
// components 2j (low nibble) and 2j + 1 (high nibble), so one byte
// shuffle of the low and of the high nibbles through the 16-entry
// component table decodes the even and the odd components of 32 bytes,
// and a byte interleave restores component order before the int16 widen.
#include <algorithm>
#include <cstdlib>

#include "hd/kernels.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(OMSHD_DISABLE_SIMD)
#define OMSHD_X86_SIMD 1
#include <immintrin.h>
#endif

namespace oms::hd::kernels {
namespace {

void accumulate_scalar(const std::uint64_t* const* rows,
                       const std::uint64_t* const* flips, std::size_t n,
                       const std::int8_t* lut, std::size_t w_first,
                       std::size_t w_last, std::int16_t* acc) noexcept {
  for (std::size_t p = 0; p < n; ++p) {
    for (std::size_t w = w_first; w < w_last; ++w) {
      const std::uint64_t x = rows[p][w] ^ flips[p][w];
      std::int16_t* out = acc + 16 * w;
      for (int k = 0; k < 16; ++k) {
        out[k] = static_cast<std::int16_t>(out[k] + lut[(x >> (4 * k)) & 15]);
      }
    }
  }
}

void binarize_scalar(const std::int16_t* acc, std::size_t d_first,
                     std::size_t dim, std::uint64_t* out) noexcept {
  for (std::size_t d = d_first; d < dim; ++d) {
    // Ties break on parity: odd components set, even ones clear.
    if (acc[d] > 0 || (acc[d] == 0 && (d & 1) != 0)) {
      out[d >> 6] |= 1ULL << (d & 63);
    } else {
      out[d >> 6] &= ~(1ULL << (d & 63));
    }
  }
}

#ifdef OMSHD_X86_SIMD

/// Row words per pass of the SIMD accumulate: the int8 partials of one
/// pass (2 × 8 bytes per word) and the int16 accumulators it widens into
/// stay L1-resident while each peak's row streams through once.
constexpr std::size_t kPassWords = 512;

/// Peaks whose decoded products int8 partial sums hold exactly.
std::size_t int8_group(const std::int8_t* lut) noexcept {
  int max_abs = 1;
  for (int i = 0; i < 16; ++i) max_abs = std::max(max_abs, std::abs(lut[i]));
  return static_cast<std::size_t>(127 / max_abs);
}

/// Adds 64 components of int8 partials into int16 accumulators `a`
/// (components [0, 64) of a 32-row-byte span): `even` and `odd` hold the
/// low- and high-nibble partials of the span's 32 bytes. Within each
/// 128-bit lane the byte interleave yields components [0,16) | [32,48)
/// (u0) and [16,32) | [48,64) (u1).
__attribute__((target("avx2"), always_inline)) inline void widen64_avx2(
    __m256i even, __m256i odd, std::int16_t* a) noexcept {
  const __m256i u0 = _mm256_unpacklo_epi8(even, odd);
  const __m256i u1 = _mm256_unpackhi_epi8(even, odd);
  const __m128i parts[4] = {
      _mm256_castsi256_si128(u0), _mm256_castsi256_si128(u1),
      _mm256_extracti128_si256(u0, 1), _mm256_extracti128_si256(u1, 1)};
  for (int j = 0; j < 4; ++j) {
    auto* v = reinterpret_cast<__m256i*>(a + 16 * j);
    _mm256_storeu_si256(v, _mm256_add_epi16(_mm256_loadu_si256(v),
                                            _mm256_cvtepi8_epi16(parts[j])));
  }
}

__attribute__((target("avx512f,avx512bw"), always_inline)) inline void
widen64_avx512(__m256i even, __m256i odd, std::int16_t* a) noexcept {
  const __m256i u0 = _mm256_unpacklo_epi8(even, odd);
  const __m256i u1 = _mm256_unpackhi_epi8(even, odd);
  // Lane-pair the halves into components [0,32) and [32,64).
  const __m256i halves[2] = {_mm256_permute2x128_si256(u0, u1, 0x20),
                             _mm256_permute2x128_si256(u0, u1, 0x31)};
  for (int j = 0; j < 2; ++j) {
    std::int16_t* v = a + 32 * j;
    _mm512_storeu_si512(v, _mm512_add_epi16(_mm512_loadu_si512(v),
                                            _mm512_cvtepi8_epi16(halves[j])));
  }
}

// The SIMD accumulate streams each peak's row once per pass: the row XOR
// the level's flip words is split into low and high nibbles, both decoded
// by one byte shuffle through the component table, and summed as int8
// into per-pass even/odd partials — exact for int8_group() peaks, after
// which the partials are interleaved back into component order, widened
// and added to the int16 accumulators.

__attribute__((target("avx2"))) void accumulate_avx2(
    const std::uint64_t* const* rows, const std::uint64_t* const* flips,
    std::size_t n, const std::int8_t* lut, std::size_t words,
    std::int16_t* acc) noexcept {
  const __m256i lut_v = _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lut)));
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const std::size_t group = int8_group(lut);
  const std::size_t simd_words = words / 4 * 4;
  alignas(32) std::int8_t even[kPassWords * 8];
  alignas(32) std::int8_t odd[kPassWords * 8];
  for (std::size_t w0 = 0; w0 < simd_words; w0 += kPassWords) {
    const std::size_t bytes = std::min(kPassWords, simd_words - w0) * 8;
    for (std::size_t p0 = 0; p0 < n; p0 += group) {
      std::fill_n(even, bytes, std::int8_t{0});
      std::fill_n(odd, bytes, std::int8_t{0});
      for (std::size_t p = p0; p < std::min(n, p0 + group); ++p) {
        const auto* r = reinterpret_cast<const std::uint8_t*>(rows[p] + w0);
        const auto* f = reinterpret_cast<const std::uint8_t*>(flips[p] + w0);
        for (std::size_t b = 0; b < bytes; b += 32) {
          const __m256i x = _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(r + b)),
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(f + b)));
          auto* e = reinterpret_cast<__m256i*>(even + b);
          auto* o = reinterpret_cast<__m256i*>(odd + b);
          _mm256_store_si256(
              e, _mm256_add_epi8(_mm256_load_si256(e),
                                 _mm256_shuffle_epi8(
                                     lut_v, _mm256_and_si256(x, low_mask))));
          _mm256_store_si256(
              o, _mm256_add_epi8(
                     _mm256_load_si256(o),
                     _mm256_shuffle_epi8(
                         lut_v, _mm256_and_si256(_mm256_srli_epi16(x, 4),
                                                 low_mask))));
        }
      }
      for (std::size_t b = 0; b < bytes; b += 32) {
        widen64_avx2(
            _mm256_load_si256(reinterpret_cast<const __m256i*>(even + b)),
            _mm256_load_si256(reinterpret_cast<const __m256i*>(odd + b)),
            acc + 16 * w0 + 2 * b);
      }
    }
  }
  accumulate_scalar(rows, flips, n, lut, simd_words, words, acc);
}

__attribute__((target("avx2"))) void binarize_avx2(const std::int16_t* acc,
                                                   std::size_t dim,
                                                   std::uint64_t* out) noexcept {
  // acc > thr with thr = 0 on even and -1 on odd components is exactly
  // "acc > 0, ties to parity".
  const __m256i thr = _mm256_set1_epi32(static_cast<int>(0xFFFF0000U));
  std::size_t d = 0;
  for (; d + 64 <= dim; d += 64) {
    __m256i c[4];
    for (int j = 0; j < 4; ++j) {
      c[j] = _mm256_cmpgt_epi16(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + d + 16 * j)),
          thr);
    }
    // packs interleaves 128-bit lanes; the 0xD8 qword permute undoes it.
    const __m256i lo =
        _mm256_permute4x64_epi64(_mm256_packs_epi16(c[0], c[1]), 0xD8);
    const __m256i hi =
        _mm256_permute4x64_epi64(_mm256_packs_epi16(c[2], c[3]), 0xD8);
    out[d >> 6] =
        static_cast<std::uint32_t>(_mm256_movemask_epi8(lo)) |
        static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(_mm256_movemask_epi8(hi)))
            << 32;
  }
  binarize_scalar(acc, d, dim, out);
}

__attribute__((target("avx512f,avx512bw"))) void accumulate_avx512(
    const std::uint64_t* const* rows, const std::uint64_t* const* flips,
    std::size_t n, const std::int8_t* lut, std::size_t words,
    std::int16_t* acc) noexcept {
  alignas(64) std::int8_t lut4[64];
  for (int i = 0; i < 64; ++i) lut4[i] = lut[i % 16];
  const __m512i lut_v = _mm512_load_si512(lut4);
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const std::size_t group = int8_group(lut);
  const std::size_t simd_words = words / 8 * 8;
  alignas(64) std::int8_t even[kPassWords * 8];
  alignas(64) std::int8_t odd[kPassWords * 8];
  for (std::size_t w0 = 0; w0 < simd_words; w0 += kPassWords) {
    const std::size_t bytes = std::min(kPassWords, simd_words - w0) * 8;
    for (std::size_t p0 = 0; p0 < n; p0 += group) {
      std::fill_n(even, bytes, std::int8_t{0});
      std::fill_n(odd, bytes, std::int8_t{0});
      for (std::size_t p = p0; p < std::min(n, p0 + group); ++p) {
        const auto* r = reinterpret_cast<const std::uint8_t*>(rows[p] + w0);
        const auto* f = reinterpret_cast<const std::uint8_t*>(flips[p] + w0);
        for (std::size_t b = 0; b < bytes; b += 64) {
          const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(r + b),
                                             _mm512_loadu_si512(f + b));
          _mm512_store_si512(
              even + b,
              _mm512_add_epi8(_mm512_load_si512(even + b),
                              _mm512_shuffle_epi8(
                                  lut_v, _mm512_and_si512(x, low_mask))));
          _mm512_store_si512(
              odd + b,
              _mm512_add_epi8(
                  _mm512_load_si512(odd + b),
                  _mm512_shuffle_epi8(
                      lut_v,
                      _mm512_and_si512(_mm512_srli_epi16(x, 4), low_mask))));
        }
      }
      for (std::size_t b = 0; b < bytes; b += 32) {
        widen64_avx512(
            _mm256_load_si256(reinterpret_cast<const __m256i*>(even + b)),
            _mm256_load_si256(reinterpret_cast<const __m256i*>(odd + b)),
            acc + 16 * w0 + 2 * b);
      }
    }
  }
  accumulate_scalar(rows, flips, n, lut, simd_words, words, acc);
}

__attribute__((target("avx512f,avx512bw"))) void binarize_avx512(
    const std::int16_t* acc, std::size_t dim, std::uint64_t* out) noexcept {
  const __m512i thr = _mm512_set1_epi32(static_cast<int>(0xFFFF0000U));
  std::size_t d = 0;
  for (; d + 64 <= dim; d += 64) {
    const std::uint64_t lo =
        _mm512_cmpgt_epi16_mask(_mm512_loadu_si512(acc + d), thr);
    const std::uint64_t hi =
        _mm512_cmpgt_epi16_mask(_mm512_loadu_si512(acc + d + 32), thr);
    out[d >> 6] = lo | (hi << 32);
  }
  binarize_scalar(acc, d, dim, out);
}

bool has_avx512bw() noexcept {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512bw") != 0;
  }();
  return ok;
}

#endif  // OMSHD_X86_SIMD

}  // namespace

Tier encoder_tier(Tier tier) noexcept {
  if (static_cast<int>(tier) > static_cast<int>(best_supported())) {
    tier = best_supported();
  }
#ifdef OMSHD_X86_SIMD
  if (tier == Tier::kAvx512 && !has_avx512bw()) tier = Tier::kAvx2;
#endif
  return tier;
}

void id_level_accumulate_tier(Tier tier, const std::uint64_t* const* rows,
                              const std::uint64_t* const* flips,
                              std::size_t n, const std::int8_t* lut,
                              std::size_t words, std::int16_t* acc) noexcept {
#ifdef OMSHD_X86_SIMD
  switch (encoder_tier(tier)) {
    case Tier::kAvx512:
      accumulate_avx512(rows, flips, n, lut, words, acc);
      return;
    case Tier::kAvx2:
      accumulate_avx2(rows, flips, n, lut, words, acc);
      return;
    case Tier::kScalar:
      break;
  }
#else
  (void)tier;
#endif
  accumulate_scalar(rows, flips, n, lut, 0, words, acc);
}

void binarize_tier(Tier tier, const std::int16_t* acc, std::size_t dim,
                   std::uint64_t* out) noexcept {
#ifdef OMSHD_X86_SIMD
  switch (encoder_tier(tier)) {
    case Tier::kAvx512:
      binarize_avx512(acc, dim, out);
      return;
    case Tier::kAvx2:
      binarize_avx2(acc, dim, out);
      return;
    case Tier::kScalar:
      break;
  }
#else
  (void)tier;
#endif
  binarize_scalar(acc, 0, dim, out);
}

}  // namespace oms::hd::kernels
