#include "accel/imc_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace oms::accel {

ImcSearchEngine::ImcSearchEngine(std::span<const util::BitVec> references,
                                 const ImcSearchConfig& cfg)
    : cfg_(cfg),
      refs_(references),
      view_(hd::RefView::from_span(references)),
      rng_(util::hash_combine(cfg.seed, 0x1333C5ULL)) {
  if (refs_.empty()) return;
  const std::size_t dim = refs_.front().size();
  for (const auto& r : refs_) {
    if (r.size() != dim) {
      throw std::invalid_argument("ImcSearchEngine: dimension mismatch");
    }
  }
  if (cfg_.activated_pairs == 0 ||
      cfg_.array.pair_rows() % cfg_.activated_pairs != 0) {
    throw std::invalid_argument(
        "ImcSearchEngine: activated_pairs must divide array pair rows");
  }

  rram::ArrayConfig acfg = cfg_.array;
  acfg.cell.levels = 1 << cfg_.weight_bits;

  switch (cfg_.fidelity) {
    case Fidelity::kIdeal:
      phase_sigma_ = 0.0;
      break;
    case Fidelity::kStatistical: {
      const MvmErrorStats stats =
          calibrate_mvm_error(acfg, cfg_.activated_pairs, cfg_.weight_bits,
                              cfg_.calibration_samples, cfg_.seed);
      // Gain (IR droop) scales every partial uniformly; the stochastic
      // residual is what perturbs rankings.
      phase_sigma_ = stats.sigma_mac;
      gain_ = stats.bias_gain;
      break;
    }
    case Fidelity::kCircuit: {
      const std::size_t pair_rows = acfg.pair_rows();
      const std::size_t vtiles = (dim + pair_rows - 1) / pair_rows;
      refs_per_array_ = acfg.cols;
      const std::size_t ref_blocks =
          (refs_.size() + refs_per_array_ - 1) / refs_per_array_;
      rram::ChipConfig chip_cfg;
      chip_cfg.array = acfg;
      chip_cfg.array_count = ref_blocks * vtiles;
      chip_ = std::make_unique<rram::MlcChip>(chip_cfg, cfg_.seed);
      phases_per_ref_ = (dim + cfg_.activated_pairs - 1) / cfg_.activated_pairs;

      // Program every reference: bit d of reference j lives in vertical
      // tile d / pair_rows, local pair d % pair_rows, column j % cols.
      for (std::size_t j = 0; j < refs_.size(); ++j) {
        const std::size_t block = j / refs_per_array_;
        const std::size_t col = j % refs_per_array_;
        for (std::size_t d = 0; d < dim; ++d) {
          const std::size_t tile = d / pair_rows;
          const std::size_t pair = d % pair_rows;
          const double w = refs_[j].get(d) ? 1.0 : -1.0;
          chip_->array(block * vtiles + tile).program_weight(pair, col, w);
        }
      }
      break;
    }
  }
}

ImcSearchEngine::~ImcSearchEngine() = default;

double ImcSearchEngine::statistical_dot(const util::BitVec& query,
                                        std::size_t index) {
  const double exact = static_cast<double>(util::bipolar_dot(query, refs_[index]));
  if (!noisy()) return exact;
  const std::size_t phases = phases_per_query(query);
  phases_executed_.fetch_add(phases, std::memory_order_relaxed);
  return gain_ * exact +
         rng_.normal(0.0, phase_sigma_ * std::sqrt(static_cast<double>(phases)));
}

double ImcSearchEngine::circuit_dot(const util::BitVec& query,
                                    std::size_t index) {
  const std::size_t dim = query.size();
  const std::size_t pair_rows = cfg_.array.pair_rows();
  const std::size_t vtiles = (dim + pair_rows - 1) / pair_rows;
  const std::size_t block = index / refs_per_array_;
  const std::size_t col = index % refs_per_array_;

  std::vector<int> x(cfg_.activated_pairs, 0);
  double total = 0.0;
  for (std::size_t d0 = 0; d0 < dim; d0 += cfg_.activated_pairs) {
    const std::size_t n = std::min(cfg_.activated_pairs, dim - d0);
    for (std::size_t k = 0; k < n; ++k) {
      x[k] = query.get(d0 + k) ? 1 : -1;
    }
    const std::size_t tile = d0 / pair_rows;
    const std::size_t pair0 = d0 % pair_rows;
    const std::vector<double> macs = chip_->array(block * vtiles + tile)
                                         .mvm({x.data(), n}, pair0, n, col,
                                              col + 1);
    total += macs.front();
    phases_executed_.fetch_add(1, std::memory_order_relaxed);
  }
  return total;
}

double ImcSearchEngine::dot(const util::BitVec& query, std::size_t index) {
  if (index >= refs_.size()) {
    throw std::out_of_range("ImcSearchEngine::dot");
  }
  if (cfg_.fidelity == Fidelity::kCircuit) return circuit_dot(query, index);
  return statistical_dot(query, index);
}

double ImcSearchEngine::noisy_value(double exact, std::uint64_t key,
                                    std::size_t index,
                                    double sqrt_phases) const noexcept {
  // Keyed on the global reference index, so any range of the library
  // (a sharded executor's shard) sees exactly the monolithic noise.
  const double z = util::counter_normal(key, index);
  return gain_ * exact + z * phase_sigma_ * sqrt_phases;
}

double ImcSearchEngine::dot_keyed(const util::BitVec& query, std::size_t index,
                                  std::uint64_t stream) const {
  if (index >= refs_.size()) {
    throw std::out_of_range("ImcSearchEngine::dot_keyed");
  }
  if (cfg_.fidelity == Fidelity::kCircuit) {
    throw std::logic_error("dot_keyed is not available in circuit fidelity");
  }
  const double exact =
      static_cast<double>(util::bipolar_dot(query, refs_[index]));
  if (!noisy()) return exact;
  const std::size_t phases = phases_per_query(query);
  phases_executed_.fetch_add(phases, std::memory_order_relaxed);
  noise_draws_.fetch_add(1, std::memory_order_relaxed);
  return noisy_value(exact, util::hash_combine(cfg_.seed, stream), index,
                     std::sqrt(static_cast<double>(phases)));
}

std::vector<hd::SearchHit> ImcSearchEngine::top_k_keyed(
    const util::BitVec& query, std::size_t first, std::size_t last,
    std::size_t k, std::uint64_t stream) const {
  if (cfg_.fidelity == Fidelity::kCircuit) {
    throw std::logic_error(
        "top_k_keyed is not available in circuit fidelity");
  }
  last = std::min(last, refs_.size());
  if (k == 0 || first >= last) return {};
  if (noisy()) {
    // One batched update instead of a contended per-candidate increment.
    phases_executed_.fetch_add(phases_per_query(query) * (last - first),
                               std::memory_order_relaxed);
  }
  const hd::BatchQuery q{&query, first, last, stream};
  return std::move(sweep_keyed(std::span(&q, 1), k).front());
}

std::vector<std::vector<hd::SearchHit>> ImcSearchEngine::search_many(
    std::span<const hd::BatchQuery> queries, std::size_t k) const {
  if (cfg_.fidelity == Fidelity::kCircuit) {
    throw std::logic_error(
        "search_many is not available in circuit fidelity");
  }
  if (k == 0 || queries.empty()) {
    return std::vector<std::vector<hd::SearchHit>>(queries.size());
  }
  const std::vector<hd::BatchQuery> clipped =
      hd::clip_queries(queries, refs_.size());
  if (noisy()) {
    // Shared phase scheduling: one activation pass over a segment's
    // reference rows serves every covering query, so the phase count is
    // per segment, not per (query, segment).
    std::uint64_t phases = 0;
    hd::for_each_query_segment(
        clipped, [&](std::size_t lo, std::size_t hi,
                     std::span<const std::size_t> active) {
          phases += phases_per_query(*clipped[active.front()].hv) * (hi - lo);
        });
    phases_executed_.fetch_add(phases, std::memory_order_relaxed);
  }
  return sweep_keyed(clipped, k);
}

std::vector<std::vector<hd::SearchHit>> ImcSearchEngine::sweep_keyed(
    std::span<const hd::BatchQuery> queries, std::size_t k) const {
  // Per-slot constants hoisted out of the sweep. The epilogue is the
  // per-pair dot_keyed formula — exact dot, noisy_value's multiplication
  // order, dot = llround(score), similarity = (score / D + 1) / 2 — so
  // every hit is bit-identical to a per-pair dot_keyed scan.
  std::vector<double> dims(queries.size());
  std::vector<std::uint64_t> keys(queries.size());
  std::vector<double> sqrt_phases(queries.size());
  for (std::size_t slot = 0; slot < queries.size(); ++slot) {
    const util::BitVec& hv = *queries[slot].hv;
    dims[slot] = static_cast<double>(hv.size());
    keys[slot] = util::hash_combine(cfg_.seed, queries[slot].stream);
    sqrt_phases[slot] =
        std::sqrt(static_cast<double>(phases_per_query(hv)));
  }
  const bool noisy = this->noisy();
  std::uint64_t draws = 0;
  auto out = hd::sweep_top_k(
      queries, view_, k,
      [&](std::size_t slot, std::size_t index, std::size_t ham) {
        // D - 2·ham is an integer below 2^53, so the double is exact.
        const double exact = dims[slot] - 2.0 * static_cast<double>(ham);
        double d = exact;
        if (noisy) {
          d = noisy_value(exact, keys[slot], index, sqrt_phases[slot]);
          ++draws;
        }
        return hd::SearchHit{index, static_cast<std::int64_t>(std::llround(d)),
                             (d / dims[slot] + 1.0) / 2.0};
      },
      [&](std::size_t slot, std::size_t ham) {
        const double exact = dims[slot] - 2.0 * static_cast<double>(ham);
        if (!noisy) return static_cast<std::int64_t>(exact);
        // noisy_value with z at kCounterNormalBound, in its operation
        // order: IEEE rounding is monotone, so no draw can exceed it. It
        // falls with ham only for a non-negative gain; otherwise bound
        // nothing.
        if (!(gain_ >= 0.0)) return std::numeric_limits<std::int64_t>::max();
        return static_cast<std::int64_t>(std::llround(
            gain_ * exact +
            util::kCounterNormalBound * phase_sigma_ * sqrt_phases[slot]));
      });
  if (draws != 0) noise_draws_.fetch_add(draws, std::memory_order_relaxed);
  return out;
}

std::vector<hd::SearchHit> ImcSearchEngine::top_k(const util::BitVec& query,
                                                  std::size_t first,
                                                  std::size_t last,
                                                  std::size_t k) {
  std::vector<hd::SearchHit> hits;
  last = std::min(last, refs_.size());
  if (k == 0 || first >= last) return hits;
  const double dim = static_cast<double>(query.size());

  for (std::size_t i = first; i < last; ++i) {
    const double d = dot(query, i);
    const auto dot_int = static_cast<std::int64_t>(std::llround(d));
    hd::insert_top_k(hits, hd::SearchHit{i, dot_int, (d / dim + 1.0) / 2.0},
                     k);
  }
  return hits;
}

}  // namespace oms::accel
