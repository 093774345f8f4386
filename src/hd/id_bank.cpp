#include "hd/id_bank.hpp"

#include <stdexcept>

#include "util/rng.hpp"

namespace oms::hd {

IdBank::IdBank(std::uint32_t bins, std::uint32_t dim, IdPrecision precision,
               std::uint64_t seed)
    : bins_(bins), dim_(dim), precision_(precision), seed_(seed),
      rows_(std::make_unique<std::atomic<std::uint64_t*>[]>(bins)) {
  // Nibble code → component: bit 0 is the sign, bits 1-2 pick one of the
  // odd magnitudes 1, 3, ..., 2^p - 1 uniformly, bit 3 is unused.
  const int mags = magnitude_count(precision_);
  for (int code = 0; code < 16; ++code) {
    const int sign = (code & 1) ? 1 : -1;
    const int mag = 2 * (((code >> 1) & 3) % mags) + 1;
    lut_[static_cast<std::size_t>(code)] = static_cast<std::int8_t>(sign * mag);
  }
}

IdBank::~IdBank() {
  for (std::uint32_t b = 0; b < bins_; ++b) {
    delete[] rows_[b].load(std::memory_order_relaxed);
  }
}

void IdBank::generate_words(std::uint32_t bin,
                            std::span<std::uint64_t> out) const {
  // Counter-based generation: every 64-bit word of entropy holds 16
  // components. The stream is independent per (seed, bin, word index).
  const std::uint64_t row_seed = util::hash_combine(seed_, bin, 0x4944ULL);
  for (std::uint64_t w = 0; w < out.size(); ++w) {
    out[w] = util::mix64(row_seed ^ (w * 0x9e3779b97f4a7c15ULL));
  }
}

void IdBank::generate_row(std::uint32_t bin,
                          std::span<std::int8_t> out) const {
  auto words = std::make_unique<std::uint64_t[]>(row_words());
  generate_words(bin, {words.get(), row_words()});
  const IdRow row(words.get(), dim_, lut_.data());
  for (std::uint32_t d = 0; d < dim_; ++d) out[d] = row[d];
}

const std::uint64_t* IdBank::fetch(std::uint32_t bin) const {
  if (bin >= bins_) throw std::out_of_range("IdBank::fetch: bin out of range");
  std::atomic<std::uint64_t*>& slot = rows_[bin];
  std::uint64_t* row = slot.load(std::memory_order_acquire);
  if (row != nullptr) return row;
  // Generate outside any lock; the first compare-exchange publishes its
  // row (release) and a thread that lost the race frees its duplicate and
  // reads the winner's (acquire). Rows are pure functions of (seed, bin),
  // so the two are identical either way.
  auto fresh = std::make_unique<std::uint64_t[]>(row_words());
  generate_words(bin, {fresh.get(), row_words()});
  if (slot.compare_exchange_strong(row, fresh.get(), std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    materialized_.fetch_add(1, std::memory_order_relaxed);
    return fresh.release();
  }
  return row;
}

void IdBank::ensure(std::span<const std::uint32_t> bins) {
  for (const std::uint32_t bin : bins) (void)fetch(bin);
}

IdRow IdBank::row(std::uint32_t bin) const {
  const std::uint64_t* words =
      bin < bins_ ? rows_[bin].load(std::memory_order_acquire) : nullptr;
  if (words == nullptr) {
    throw std::logic_error("IdBank::row: bin not materialized");
  }
  return {words, dim_, lut_.data()};
}

}  // namespace oms::hd
