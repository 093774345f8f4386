// ID hypervector bank. Every m/z bin owns a pseudo-random "position"
// hypervector (paper §3.2); with the multi-bit scheme (§4.2.2) each
// component is a signed value of 1..3-bit precision. Components take the
// odd values ±{1}, ±{1,3}, ±{1,3,5,7} at 1/2/3-bit precision: scaled by
// the maximum magnitude these land exactly on the uniform 2^n-level
// differential conductance grid of an n-bit MLC cell (Eqs. 2-3), so the
// in-memory encoder stores ID components without quantization error.
// (The paper's example set {-4..-1, 1..4} is the same lattice up to an
// affine rescale, which Sign() in Eq. 1 is invariant to.)
//
// Rows are generated deterministically from (seed, bin) with a counter-based
// hash, so the bank never needs to persist 28k × 8192 values. A row is
// kept packed exactly as the generator emits it: one 64-bit mix64 word
// per 16 components, 4 bits each (bit 0 the sign, bits 1-2 the magnitude
// index, bit 3 unused) — 4 KiB per row at D = 8192. component_lut()
// decodes a nibble to its signed value. Rows are materialized on first
// use by whichever thread asks and published lock-free (one
// compare-exchange per row), so encoders need no prewarm and every
// accessor is safe to call concurrently with fetch()/ensure().
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

namespace oms::hd {

/// Precision of ID hypervector components, in bits (paper §4.2.2).
enum class IdPrecision : std::uint8_t { k1Bit = 1, k2Bit = 2, k3Bit = 3 };

/// Largest component magnitude at a given precision (1→1, 2→3, 3→7).
[[nodiscard]] constexpr int max_magnitude(IdPrecision p) noexcept {
  return (1 << static_cast<int>(p)) - 1;
}

/// Number of distinct magnitudes at a given precision (1, 2, 4).
[[nodiscard]] constexpr int magnitude_count(IdPrecision p) noexcept {
  return 1 << (static_cast<int>(p) - 1);
}

/// Read-only decoding view of one packed ID row: component d is nibble
/// d % 16 of word d / 16, mapped through the bank's component_lut().
class IdRow {
 public:
  IdRow(const std::uint64_t* words, std::uint32_t dim,
        const std::int8_t* lut) noexcept
      : words_(words), dim_(dim), lut_(lut) {}

  [[nodiscard]] std::size_t size() const noexcept { return dim_; }
  [[nodiscard]] std::int8_t operator[](std::size_t d) const noexcept {
    return lut_[(words_[d >> 4] >> ((d & 15) * 4)) & 15];
  }

 private:
  const std::uint64_t* words_;
  std::uint32_t dim_;
  const std::int8_t* lut_;
};

class IdBank {
 public:
  /// `bins` is the number of distinct m/z bins (rows); `dim` the
  /// hypervector dimension D.
  IdBank(std::uint32_t bins, std::uint32_t dim, IdPrecision precision,
         std::uint64_t seed);
  ~IdBank();
  IdBank(const IdBank&) = delete;
  IdBank& operator=(const IdBank&) = delete;

  [[nodiscard]] std::uint32_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::uint32_t bin_count() const noexcept { return bins_; }
  [[nodiscard]] IdPrecision precision() const noexcept { return precision_; }

  /// Packed words per row (ceil(dim / 16)).
  [[nodiscard]] std::uint32_t row_words() const noexcept {
    return (dim_ + 15) / 16;
  }

  /// Signed component value of each 4-bit packed code at this precision.
  [[nodiscard]] const std::array<std::int8_t, 16>& component_lut()
      const noexcept {
    return lut_;
  }

  /// The packed row of `bin`, materialized first if no thread has yet.
  /// Lock-free and thread-safe; throws std::out_of_range for a bin
  /// outside [0, bin_count()).
  [[nodiscard]] const std::uint64_t* fetch(std::uint32_t bin) const;

  /// Decoding view of `bin`'s row, materializing it on first use (the one
  /// accessor for callers that may see any bin).
  [[nodiscard]] IdRow fetch_row(std::uint32_t bin) const {
    return {fetch(bin), dim_, lut_.data()};
  }

  /// Materializes the rows for every bin in `bins`: an optional prewarm,
  /// since fetch() materializes on demand. Thread-safe and idempotent;
  /// throws std::out_of_range for a bin outside [0, bin_count()).
  void ensure(std::span<const std::uint32_t> bins);

  /// Decoding view of a materialized row (size dim()); components are
  /// nonzero signed values with |v| ≤ max_magnitude(precision). Throws
  /// std::logic_error if the row is not materialized.
  [[nodiscard]] IdRow row(std::uint32_t bin) const;

  /// True if the row has been materialized.
  [[nodiscard]] bool materialized(std::uint32_t bin) const noexcept {
    return bin < bins_ && rows_[bin].load(std::memory_order_acquire) != nullptr;
  }

  /// Rows materialized so far, and the bytes their packed words occupy.
  [[nodiscard]] std::size_t materialized_count() const noexcept {
    return materialized_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t resident_bytes() const noexcept {
    return materialized_count() * row_words() * sizeof(std::uint64_t);
  }

  /// Generates one row into `out` (size dim()) without caching, decoded to
  /// one signed value per component. The same deterministic function
  /// fetch()/row() read.
  void generate_row(std::uint32_t bin, std::span<std::int8_t> out) const;

 private:
  /// Generates one row's packed words into `out` (size row_words())
  /// without caching: the generator itself, a whole word at a time.
  void generate_words(std::uint32_t bin, std::span<std::uint64_t> out) const;

  std::uint32_t bins_;
  std::uint32_t dim_;
  IdPrecision precision_;
  std::uint64_t seed_;
  std::array<std::int8_t, 16> lut_{};
  /// Row pointers, null until published; each row is owned by its slot.
  std::unique_ptr<std::atomic<std::uint64_t*>[]> rows_;
  mutable std::atomic<std::size_t> materialized_{0};
};

}  // namespace oms::hd
