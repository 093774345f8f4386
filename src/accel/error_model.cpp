#include "accel/error_model.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace oms::accel {

MvmErrorStats calibrate_mvm_error(const rram::ArrayConfig& base,
                                  std::size_t n_pairs, int weight_bits,
                                  std::size_t samples, std::uint64_t seed) {
  if (n_pairs > base.pair_rows()) {
    throw std::invalid_argument(
        "calibrate_mvm_error: " + std::to_string(n_pairs) +
        " activated pairs exceed the array's " +
        std::to_string(base.pair_rows()) + " differential pair rows");
  }
  rram::ArrayConfig cfg = base;
  cfg.cell.levels = 1 << weight_bits;

  util::Xoshiro256 rng(util::hash_combine(seed, n_pairs,
                                          static_cast<std::uint64_t>(weight_bits)));

  MvmErrorStats stats;
  stats.n_pairs = n_pairs;
  stats.weight_bits = weight_bits;

  const int levels = cfg.cell.levels;
  std::vector<double> ideal;
  std::vector<double> measured;
  ideal.reserve(samples);
  measured.reserve(samples);

  const std::size_t cols_per_round = std::min<std::size_t>(cfg.cols, 32);
  std::vector<int> x(n_pairs);

  while (ideal.size() < samples) {
    rram::CrossbarArray array(cfg, rng.next());
    // Random quantized weights in the columns we will sense.
    for (std::size_t c = 0; c < cols_per_round; ++c) {
      for (std::size_t r = 0; r < n_pairs; ++r) {
        const int level = static_cast<int>(rng.below(levels));
        const double w =
            2.0 * static_cast<double>(level) / static_cast<double>(levels - 1) -
            1.0;
        array.program_weight(r, c, w);
      }
    }
    for (std::size_t r = 0; r < n_pairs; ++r) {
      x[r] = rng.bernoulli(0.5) ? 1 : -1;
    }
    const std::vector<double> truth =
        array.ideal_mvm(x, 0, n_pairs, 0, cols_per_round);
    const std::vector<double> out = array.mvm(x, 0, n_pairs, 0, cols_per_round);
    for (std::size_t c = 0; c < cols_per_round && ideal.size() < samples; ++c) {
      ideal.push_back(truth[c]);
      measured.push_back(out[c]);
    }
  }

  // Least-squares gain fit: measured ≈ gain · ideal.
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < ideal.size(); ++i) {
    num += measured[i] * ideal[i];
    den += ideal[i] * ideal[i];
  }
  stats.bias_gain = den > 0.0 ? num / den : 1.0;

  double raw = 0.0;
  double resid = 0.0;
  for (std::size_t i = 0; i < ideal.size(); ++i) {
    const double e_raw = measured[i] - ideal[i];
    const double e_res = measured[i] - stats.bias_gain * ideal[i];
    raw += e_raw * e_raw;
    resid += e_res * e_res;
  }
  const auto n = static_cast<double>(ideal.size());
  stats.rmse_mac = std::sqrt(raw / n);
  stats.sigma_mac = std::sqrt(resid / n);

  double ideal_sq = 0.0;
  for (const double v : ideal) ideal_sq += v * v;
  const double ideal_std = std::sqrt(ideal_sq / n);
  stats.rmse_normalized =
      ideal_std > 0.0 ? stats.rmse_mac / ideal_std : stats.rmse_mac;
  stats.sigma_normalized =
      ideal_std > 0.0 ? stats.sigma_mac / ideal_std : stats.sigma_mac;
  return stats;
}

}  // namespace oms::accel
