// SIMD XOR-popcount kernels behind the exact Hamming search, with runtime
// CPU dispatch. Three tiers share one contract — bit-identical Hamming
// counts, so swapping tiers can never move a search result:
//
//   kScalar  portable std::popcount loop (util::xor_popcount); the
//            only tier compiled when OMSHD_DISABLE_SIMD is defined or the
//            target is not x86-64;
//   kAvx2    256-bit XOR + nibble-LUT (vpshufb) popcount, accumulated with
//            vpsadbw — no special compile flags needed, the functions carry
//            target("avx2") attributes and are entered only after a CPUID
//            check;
//   kAvx512  512-bit XOR + native vpopcntq (AVX-512-VPOPCNTDQ).
//
// The dispatched pair entry point (xor_popcount) reads the active tier once
// per call; the extent sweep (hamming_sweep_tier) takes it explicitly.
// best_supported() is CPUID-probed at startup and the OMSHD_KERNEL_TIER env
// var ("scalar" | "avx2" | "avx512") or set_active_tier() can clamp it down — benches use this to measure every
// tier, tests to prove bit-identity across all of them.
//
// The ID-Level encoder's accumulate and binarize kernels (declared at the
// end of this header, defined in hd/encode_kernels.cpp) dispatch through
// the same tiers and the same active-tier clamp.
//
// RefView is the one reference layout the sweeps run over: an ordered
// list of contiguous (words, stride, rows, base-index) extents partitioning
// the global reference index space [0, count). The mmap'd
// index::LibraryIndex word block (64-byte aligned) is one extent; a
// multi-segment index::SegmentedLibrary — whose merged order interleaves
// disjoint mapped blocks — is one extent per run of same-segment rows and
// keeps the SIMD sweep instead of dropping to per-BitVec indirection. All
// loads are unaligned-safe, so the 8-byte-aligned in-memory MappedFile
// fallback goes through the same kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/bitvec.hpp"

namespace oms::hd {

/// One contiguous run of a piecewise reference view: global rows
/// [base, base + rows) live at words + j*stride for j in [0, rows).
struct RefExtent {
  const std::uint64_t* words = nullptr;
  std::size_t stride = 0;  ///< Words between consecutive rows.
  std::size_t rows = 0;    ///< Rows in this run.
  std::size_t base = 0;    ///< Global index of the first row.
};

/// Piecewise reference-major view: an ordered list of contiguous extents
/// partitioning the global index space [0, count()), all sharing one dim.
/// The sweeps and search kernels iterate extents with global reference
/// indices, so results (and the index-keyed noise of simulated backends)
/// do not depend on how the rows are split into extents.
/// Non-owning; the underlying blocks must outlive the view.
class RefView {
 public:
  RefView() = default;

  [[nodiscard]] bool valid() const noexcept { return !extents_.empty(); }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return (dim_ + 63) / 64;
  }
  [[nodiscard]] std::size_t extent_count() const noexcept {
    return extents_.size();
  }
  /// True when the whole view is one extent (one contiguous word block).
  [[nodiscard]] bool contiguous() const noexcept {
    return extents_.size() == 1;
  }
  [[nodiscard]] std::span<const RefExtent> extents() const noexcept {
    return extents_;
  }

  /// Index of the extent containing global row `i` (binary search; the
  /// sweeps iterate extents directly — keep this out of per-row loops).
  [[nodiscard]] std::size_t extent_index(std::size_t i) const noexcept;

  /// Row pointer by global index (extent_index + offset arithmetic).
  [[nodiscard]] const std::uint64_t* row(std::size_t i) const noexcept;

  /// Greedily coalesces `refs` into maximal constant-stride runs: block-
  /// backed spans (LibraryIndex, one SegmentedLibrary segment) become one
  /// extent per underlying block, individually heap-allocated BitVecs
  /// degenerate to single-row extents (still correct — every row pointer
  /// is taken verbatim). Invalid on an empty span, zero-dimension rows or
  /// mixed dims.
  [[nodiscard]] static RefView from_span(std::span<const util::BitVec> refs);

 private:
  std::vector<RefExtent> extents_;
  std::size_t count_ = 0;
  std::size_t dim_ = 0;
};

namespace kernels {

/// Dispatch tiers, ordered so a larger value strictly implies the smaller
/// ones are also runnable on this CPU.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Best tier this binary + CPU can run (compile-time gates × CPUID).
[[nodiscard]] Tier best_supported() noexcept;

/// Tier the dispatched entry points currently use. Defaults to
/// best_supported(), clamped by the OMSHD_KERNEL_TIER env var when set.
[[nodiscard]] Tier active_tier() noexcept;

/// Forces the active tier (clamped to best_supported(); returns the tier
/// actually installed). For benches and the cross-tier identity tests.
Tier set_active_tier(Tier tier) noexcept;

[[nodiscard]] std::string_view tier_name(Tier tier) noexcept;
/// Parses "scalar" | "avx2" | "avx512" (anything else → kScalar).
[[nodiscard]] Tier tier_from_name(std::string_view name) noexcept;

/// popcount(a ^ b) over n words, through the active tier.
[[nodiscard]] std::size_t xor_popcount(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       std::size_t n) noexcept;

/// Same, through an explicit tier (must be <= best_supported()).
[[nodiscard]] std::size_t xor_popcount_tier(Tier tier, const std::uint64_t* a,
                                            const std::uint64_t* b,
                                            std::size_t n) noexcept;

/// Hamming distances of one query against rows [first, last) of one
/// extent (indices local to the extent): out[j] = popcount(query ^
/// words[(first + j) * stride]) over `word_count` words. The
/// reference-major inner loop of the exact search; rows stream
/// sequentially so the hardware prefetcher sees one linear walk over the
/// block. The tier is explicit (must be <= best_supported()): the one
/// caller, hd::sweep_top_k, resolves it once per call, not per extent.
void hamming_sweep_tier(Tier tier, const std::uint64_t* query,
                        const RefExtent& refs, std::size_t word_count,
                        std::size_t first, std::size_t last,
                        std::uint32_t* out) noexcept;

/// Rows per cache block for a batched sweep: sized so one chunk of
/// reference rows (~chunk * row_words * 8 bytes) stays L2-resident while
/// every query of a block is scored against it.
[[nodiscard]] std::size_t sweep_chunk_rows(std::size_t row_words) noexcept;

// --- ID-Level encoder kernels (hd::Encoder's hot path) ----------------------
// The same three tiers, bit-identical by contract. The AVX-512 encoder
// path also needs AVX-512BW (16-bit lanes, byte shuffles); on a CPU whose
// kAvx512 popcount tier lacks it, the encoder runs its AVX2 path instead.

/// The tier the encoder kernels actually run for a requested tier.
[[nodiscard]] Tier encoder_tier(Tier tier) noexcept;

/// Adds n packed ID rows into int16 accumulators: for each peak p,
/// component d of rows[p] XOR flips[p] (nibble d % 16 of word d / 16, see
/// hd/id_bank.hpp) decodes through lut[16] and is added to acc[d], for d
/// in [0, 16 * words). Exact only while n · max|lut| ≤ 32767 — the caller
/// splits larger peak lists.
void id_level_accumulate_tier(Tier tier, const std::uint64_t* const* rows,
                              const std::uint64_t* const* flips,
                              std::size_t n, const std::int8_t* lut,
                              std::size_t words, std::int16_t* acc) noexcept;

/// Sign() binarization of dim int16 accumulators into ceil(dim / 64)
/// words: bit d is acc[d] > 0, ties (acc[d] == 0) resolved to d's parity.
void binarize_tier(Tier tier, const std::int16_t* acc, std::size_t dim,
                   std::uint64_t* out) noexcept;

}  // namespace kernels
}  // namespace oms::hd
