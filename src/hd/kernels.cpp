#include "hd/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(OMSHD_DISABLE_SIMD)
#define OMSHD_X86_SIMD 1
#include <immintrin.h>
#endif

namespace oms::hd {

std::size_t RefView::extent_index(std::size_t i) const noexcept {
  // Last extent whose base <= i; extents partition [0, count_), so a
  // valid view always has extents_[0].base == 0 and the -1 is safe.
  const auto it = std::upper_bound(
      extents_.begin(), extents_.end(), i,
      [](std::size_t g, const RefExtent& e) { return g < e.base; });
  return static_cast<std::size_t>(it - extents_.begin()) - 1;
}

const std::uint64_t* RefView::row(std::size_t i) const noexcept {
  const RefExtent& e = extents_[extent_index(i)];
  return e.words + (i - e.base) * e.stride;
}

RefView RefView::from_span(std::span<const util::BitVec> refs) {
  RefView view;
  if (refs.empty()) return view;
  const std::size_t dim = refs.front().size();
  if (dim == 0) return view;
  const std::size_t wc = (dim + 63) / 64;

  std::size_t i = 0;
  while (i < refs.size()) {
    if (refs[i].size() != dim) return {};  // mixed dims: no piecewise view
    const std::uint64_t* base = refs[i].words().data();
    std::size_t rows = 1;
    std::size_t stride = wc;
    if (i + 1 < refs.size() && refs[i + 1].size() == dim) {
      // Integer pointer math: consecutive rows need not come from one
      // array object. A second row only extends the
      // run for a positive uint64-aligned stride >= word_count; every
      // further row is verified at base + j*stride before joining.
      const auto b0 = reinterpret_cast<std::uintptr_t>(base);
      const auto b1 = reinterpret_cast<std::uintptr_t>(refs[i + 1].words().data());
      if (b1 > b0 && (b1 - b0) % sizeof(std::uint64_t) == 0 &&
          (b1 - b0) / sizeof(std::uint64_t) >= wc) {
        stride = (b1 - b0) / sizeof(std::uint64_t);
        while (i + rows < refs.size() && refs[i + rows].size() == dim &&
               refs[i + rows].words().data() == base + rows * stride) {
          ++rows;
        }
      }
    }
    view.extents_.push_back(RefExtent{base, stride, rows, i});
    i += rows;
  }
  view.count_ = refs.size();
  view.dim_ = dim;
  return view;
}

namespace kernels {

namespace {

std::size_t xor_popcount_scalar(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t n) noexcept {
  return util::xor_popcount(a, b, n);
}

#ifdef OMSHD_X86_SIMD

// AVX2 popcount via the nibble-LUT (vpshufb) method: per 256-bit vector,
// split bytes into nibbles, look up per-nibble popcounts, and fold the byte
// sums into four 64-bit lanes with vpsadbw every iteration (so byte
// counters can never saturate).
__attribute__((target("avx2"), always_inline)) inline std::size_t
xor_popcount_avx2_impl(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t n) noexcept {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i x = _mm256_xor_si256(va, vb);
    const __m256i lo = _mm256_and_si256(x, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(x, 4), low_mask);
    const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                        _mm256_shuffle_epi8(lut, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  std::size_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += std::popcount(a[i] ^ b[i]);
  return total;
}

__attribute__((target("avx2"))) std::size_t xor_popcount_avx2(
    const std::uint64_t* a, const std::uint64_t* b, std::size_t n) noexcept {
  return xor_popcount_avx2_impl(a, b, n);
}

__attribute__((target("avx2"))) void hamming_sweep_avx2(
    const std::uint64_t* query, const RefExtent& refs, std::size_t wc,
    std::size_t first, std::size_t last, std::uint32_t* out) noexcept {
  for (std::size_t i = first; i < last; ++i) {
    out[i - first] = static_cast<std::uint32_t>(
        xor_popcount_avx2_impl(query, refs.words + i * refs.stride, wc));
  }
}

__attribute__((target("avx512f,avx512vpopcntdq"), always_inline)) inline std::
    size_t
    xor_popcount_avx512_impl(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t n) noexcept {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i va = _mm512_loadu_si512(a + i);
    const __m512i vb = _mm512_loadu_si512(b + i);
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_xor_si512(va, vb)));
  }
  // Manual lane sum: _mm512_reduce_add_epi64 trips a GCC 12
  // -Wmaybe-uninitialized false positive via _mm256_undefined_si256.
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  std::size_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] +
                      lanes[5] + lanes[6] + lanes[7];
  for (; i < n; ++i) total += std::popcount(a[i] ^ b[i]);
  return total;
}

__attribute__((target("avx512f,avx512vpopcntdq"))) std::size_t
xor_popcount_avx512(const std::uint64_t* a, const std::uint64_t* b,
                    std::size_t n) noexcept {
  return xor_popcount_avx512_impl(a, b, n);
}

__attribute__((target("avx512f,avx512vpopcntdq"))) void hamming_sweep_avx512(
    const std::uint64_t* query, const RefExtent& refs, std::size_t wc,
    std::size_t first, std::size_t last, std::uint32_t* out) noexcept {
  for (std::size_t i = first; i < last; ++i) {
    out[i - first] = static_cast<std::uint32_t>(
        xor_popcount_avx512_impl(query, refs.words + i * refs.stride, wc));
  }
}

#endif  // OMSHD_X86_SIMD

Tier probe_best_supported() noexcept {
#ifdef OMSHD_X86_SIMD
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return Tier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

Tier initial_tier() noexcept {
  Tier tier = probe_best_supported();
  if (const char* env = std::getenv("OMSHD_KERNEL_TIER")) {
    const Tier wanted = tier_from_name(env);
    if (static_cast<int>(wanted) < static_cast<int>(tier)) tier = wanted;
  }
  return tier;
}

std::atomic<Tier>& active_tier_slot() noexcept {
  static std::atomic<Tier> tier{initial_tier()};
  return tier;
}

}  // namespace

Tier best_supported() noexcept {
  static const Tier tier = probe_best_supported();
  return tier;
}

Tier active_tier() noexcept {
  return active_tier_slot().load(std::memory_order_relaxed);
}

Tier set_active_tier(Tier tier) noexcept {
  if (static_cast<int>(tier) > static_cast<int>(best_supported())) {
    tier = best_supported();
  }
  active_tier_slot().store(tier, std::memory_order_relaxed);
  return tier;
}

std::string_view tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kAvx512:
      return "avx512";
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

Tier tier_from_name(std::string_view name) noexcept {
  if (name == "avx512") return Tier::kAvx512;
  if (name == "avx2") return Tier::kAvx2;
  return Tier::kScalar;
}

std::size_t xor_popcount_tier(Tier tier, const std::uint64_t* a,
                              const std::uint64_t* b, std::size_t n) noexcept {
#ifdef OMSHD_X86_SIMD
  switch (tier) {
    case Tier::kAvx512:
      return xor_popcount_avx512(a, b, n);
    case Tier::kAvx2:
      return xor_popcount_avx2(a, b, n);
    case Tier::kScalar:
      break;
  }
#else
  (void)tier;
#endif
  return xor_popcount_scalar(a, b, n);
}

std::size_t xor_popcount(const std::uint64_t* a, const std::uint64_t* b,
                         std::size_t n) noexcept {
  return xor_popcount_tier(active_tier(), a, b, n);
}

void hamming_sweep_tier(Tier tier, const std::uint64_t* query,
                        const RefExtent& refs, std::size_t word_count,
                        std::size_t first, std::size_t last,
                        std::uint32_t* out) noexcept {
#ifdef OMSHD_X86_SIMD
  switch (tier) {
    case Tier::kAvx512:
      hamming_sweep_avx512(query, refs, word_count, first, last, out);
      return;
    case Tier::kAvx2:
      hamming_sweep_avx2(query, refs, word_count, first, last, out);
      return;
    case Tier::kScalar:
      break;
  }
#else
  (void)tier;
#endif
  for (std::size_t i = first; i < last; ++i) {
    out[i - first] = static_cast<std::uint32_t>(xor_popcount_scalar(
        query, refs.words + i * refs.stride, word_count));
  }
}

std::size_t sweep_chunk_rows(std::size_t row_words) noexcept {
  // Target ~128 KiB of reference rows per chunk: resident in L2 while every
  // active query of a block is scored against it, large enough that the
  // per-chunk bookkeeping amortizes away.
  constexpr std::size_t kChunkBytes = 128 * 1024;
  const std::size_t row_bytes =
      std::max<std::size_t>(1, row_words) * sizeof(std::uint64_t);
  return std::clamp<std::size_t>(kChunkBytes / row_bytes, 8, 4096);
}

}  // namespace kernels
}  // namespace oms::hd
