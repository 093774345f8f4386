#include "hd/encoder.hpp"

#include <algorithm>
#include <stdexcept>

namespace oms::hd {

Encoder::Encoder(const EncoderConfig& cfg)
    : cfg_(cfg),
      ids_(cfg.bins, cfg.dim, cfg.id_precision, cfg.seed),
      levels_(cfg.levels, cfg.dim, cfg.chunks, cfg.seed) {
  if (cfg.dim == 0 || cfg.dim % 64 != 0) {
    throw std::invalid_argument("EncoderConfig: dim must be a multiple of 64");
  }
}

std::vector<std::uint32_t> Encoder::quantize_levels(
    std::span<const float> weights) const {
  float max_w = 0.0F;
  for (const float w : weights) max_w = std::max(max_w, w);
  std::vector<std::uint32_t> out(weights.size(), 0);
  if (max_w <= 0.0F) return out;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    out[i] = levels_.quantize(static_cast<double>(weights[i]) / max_w);
  }
  return out;
}

std::size_t Encoder::peaks_per_flush() const noexcept {
  return static_cast<std::size_t>(32767 / max_magnitude(cfg_.id_precision));
}

void Encoder::accumulate16(std::span<const std::uint32_t> bins,
                           std::span<const std::uint32_t> lvls,
                           std::int16_t* acc, kernels::Tier tier) const {
  // Chunked LV scheme: within one chunk all LV components share a sign, so
  // the element-wise product adds or subtracts a contiguous ID segment
  // (what Fig. 5c exploits in hardware). In the packed domain that is one
  // XOR of the row with the level's flip words, decoded by the kernel.
  std::vector<const std::uint64_t*> rows(bins.size());
  std::vector<const std::uint64_t*> flips(bins.size());
  for (std::size_t i = 0; i < bins.size(); ++i) {
    rows[i] = ids_.fetch(bins[i]);
    flips[i] = levels_.flip_words(lvls[i]).data();
  }
  kernels::id_level_accumulate_tier(tier, rows.data(), flips.data(),
                                    bins.size(), ids_.component_lut().data(),
                                    ids_.row_words(), acc);
}

void Encoder::accumulate(std::span<const std::uint32_t> bins,
                         std::span<const float> weights,
                         std::span<std::int32_t> acc) const {
  if (bins.size() != weights.size()) {
    throw std::invalid_argument("Encoder::accumulate: size mismatch");
  }
  if (acc.size() != cfg_.dim) {
    throw std::invalid_argument("Encoder::accumulate: bad accumulator size");
  }
  const std::vector<std::uint32_t> lvls = quantize_levels(weights);
  const kernels::Tier tier = kernels::active_tier();
  // int16 partial sums, flushed into the int32 accumulator every
  // peaks_per_flush() peaks so no partial can overflow.
  std::vector<std::int16_t> part(cfg_.dim);
  for (std::size_t lo = 0; lo < bins.size(); lo += peaks_per_flush()) {
    const std::size_t n = std::min(peaks_per_flush(), bins.size() - lo);
    std::fill(part.begin(), part.end(), std::int16_t{0});
    accumulate16(bins.subspan(lo, n), std::span(lvls).subspan(lo, n),
                 part.data(), tier);
    for (std::uint32_t d = 0; d < cfg_.dim; ++d) acc[d] += part[d];
  }
}

util::BitVec Encoder::binarize(std::span<const std::int32_t> acc) {
  util::BitVec hv(acc.size());
  const std::span<std::uint64_t> words = hv.words();
  for (std::size_t w = 0; w < words.size(); ++w) {
    // Ties break on parity: acc > 0 on even components, acc >= 0 on odd.
    std::uint64_t bits = 0;
    const std::size_t end = std::min(acc.size(), 64 * (w + 1));
    for (std::size_t d = 64 * w; d < end; ++d) {
      const auto threshold = -static_cast<std::int32_t>(d & 1);
      bits |= static_cast<std::uint64_t>(acc[d] > threshold) << (d & 63);
    }
    words[w] = bits;
  }
  return hv;
}

util::BitVec Encoder::encode(std::span<const std::uint32_t> bins,
                             std::span<const float> weights) const {
  if (bins.size() != weights.size()) {
    throw std::invalid_argument("Encoder::encode: size mismatch");
  }
  if (bins.size() > peaks_per_flush()) {
    std::vector<std::int32_t> acc(cfg_.dim, 0);
    accumulate(bins, weights, acc);
    return binarize(acc);
  }
  const kernels::Tier tier = kernels::active_tier();
  std::vector<std::int16_t> acc(cfg_.dim, 0);
  accumulate16(bins, quantize_levels(weights), acc.data(), tier);
  util::BitVec hv(cfg_.dim);
  kernels::binarize_tier(tier, acc.data(), cfg_.dim, hv.words().data());
  return hv;
}

std::vector<util::BitVec> Encoder::encode_batch(
    std::span<const std::vector<std::uint32_t>> bin_lists,
    std::span<const std::vector<float>> weight_lists) const {
  if (bin_lists.size() != weight_lists.size()) {
    throw std::invalid_argument("Encoder::encode_batch: size mismatch");
  }
  std::vector<util::BitVec> out(bin_lists.size());
  util::ThreadPool::global().parallel_for(
      0, bin_lists.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = encode(bin_lists[i], weight_lists[i]);
        }
      });
  return out;
}

}  // namespace oms::hd
