// ID-Level hypervector encoder (paper Eq. 1):
//
//   h = Sign( Σ_{i ∈ S} ID_i ⊗ LV_i )
//
// For each peak i of a preprocessed spectrum S, the position hypervector
// ID_i (selected by the peak's m/z bin) is element-wise multiplied by the
// level hypervector LV_i (selected by the peak's quantized intensity), the
// products are accumulated per dimension, and the result is binarized.
//
// With chunked LVs each product ID_i ⊗ LV_i is ID_i with the sign of each
// LV chunk applied to the chunk's slice (§4.2.1, Fig. 5c). The encoder
// applies it to the packed ID row (one XOR with the level's flip words,
// see hd/level_bank.hpp), decodes and sums the products in int16 lanes
// through the tier-dispatched kernels of hd/kernels.hpp, and binarizes a
// word at a time. int16 is exact while peaks × max|ID| ≤ 32767 (4681
// peaks at 3-bit precision); longer peak lists flush into int32 every
// peaks_per_flush() peaks. ID rows are fetched on demand from the
// lock-free bank, so encode() and accumulate() may run from any number
// of threads on one shared Encoder with no prewarm.
//
// The encoder is deliberately independent of the mass-spectrometry types:
// it consumes parallel (bin, weight) spans, so any sparse non-negative
// feature vector can be encoded.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hd/id_bank.hpp"
#include "hd/kernels.hpp"
#include "hd/level_bank.hpp"
#include "util/bitvec.hpp"
#include "util/thread_pool.hpp"

namespace oms::hd {

/// Which encoding family produced a hypervector library. The ID-Level
/// encoder is the paper's (and this pipeline's) default; the alternatives
/// live in hd/alt_encoders.hpp and are compared in bench/ablation_encoding.
/// Persisted libraries carry this in their fingerprint so a library encoded
/// one way is never searched with queries encoded another.
enum class EncoderKind : std::uint32_t {
  kIdLevel = 0,
  kPermutation = 1,
  kRandomProjection = 2,
};

[[nodiscard]] constexpr const char* to_string(EncoderKind kind) noexcept {
  switch (kind) {
    case EncoderKind::kIdLevel: return "id-level";
    case EncoderKind::kPermutation: return "permutation";
    case EncoderKind::kRandomProjection: return "random-projection";
  }
  return "unknown";
}

struct EncoderConfig {
  std::uint32_t dim = 8192;        ///< Hypervector dimension D.
  std::uint32_t bins = 27981;      ///< Number of m/z bins (ID rows).
  std::uint32_t levels = 32;       ///< Intensity quantization levels Q.
  std::uint32_t chunks = 256;      ///< LV chunks (paper §4.2.1); divides dim.
  IdPrecision id_precision = IdPrecision::k3Bit;
  std::uint64_t seed = 0x0D0C5EEDULL;
};

class Encoder {
 public:
  explicit Encoder(const EncoderConfig& cfg);

  [[nodiscard]] const EncoderConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const IdBank& id_bank() const noexcept { return ids_; }
  [[nodiscard]] IdBank& id_bank() noexcept { return ids_; }
  [[nodiscard]] const LevelBank& level_bank() const noexcept {
    return levels_;
  }

  /// Quantized intensity level for each weight, relative to the largest
  /// weight in the spectrum.
  [[nodiscard]] std::vector<std::uint32_t> quantize_levels(
      std::span<const float> weights) const;

  /// Adds Σ ID_i ⊗ LV_i into `acc` (size dim, zero-initialized by the
  /// caller). Exposed separately because the in-memory encoder needs the
  /// pre-binarization MAC values to model analog errors.
  void accumulate(std::span<const std::uint32_t> bins,
                  std::span<const float> weights,
                  std::span<std::int32_t> acc) const;

  /// Full encode: accumulate + Sign binarization.
  [[nodiscard]] util::BitVec encode(std::span<const std::uint32_t> bins,
                                    std::span<const float> weights) const;

  /// Batch encode with the global thread pool. `bin_lists`/`weight_lists`
  /// are parallel arrays of sparse vectors.
  [[nodiscard]] std::vector<util::BitVec> encode_batch(
      std::span<const std::vector<std::uint32_t>> bin_lists,
      std::span<const std::vector<float>> weight_lists) const;

  /// Sign() binarization with a deterministic tie-break on zero (component
  /// parity), so encodings are reproducible bit-for-bit.
  [[nodiscard]] static util::BitVec binarize(std::span<const std::int32_t> acc);

 private:
  /// Peaks whose products int16 lanes sum exactly: 32767 / max|ID|.
  [[nodiscard]] std::size_t peaks_per_flush() const noexcept;
  /// Adds the products of (bins, level indices) into int16 `acc`; at most
  /// peaks_per_flush() peaks.
  void accumulate16(std::span<const std::uint32_t> bins,
                    std::span<const std::uint32_t> lvls, std::int16_t* acc,
                    kernels::Tier tier) const;

  EncoderConfig cfg_;
  IdBank ids_;
  LevelBank levels_;
};

}  // namespace oms::hd
