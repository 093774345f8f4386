// Calibrated statistical model of in-memory MVM error.
//
// The circuit-level crossbar simulation is exact but too slow to run inside
// pipeline-scale experiments (millions of candidate comparisons), so the
// accelerator offers two fidelity modes:
//   * kCircuit     — every MAC goes through CrossbarArray::mvm;
//   * kStatistical — exact digital MAC plus additive noise whose standard
//                    deviation (per activation phase, in MAC units) is
//                    *measured from the circuit model* by this calibrator.
// The calibration is run once per (array config, activated rows, weight
// bits) tuple, which keeps the statistical mode faithful to the device
// model by construction.
#pragma once

#include <cstdint>

#include "rram/array.hpp"

namespace oms::accel {

/// Fidelity of the in-memory compute simulation.
enum class Fidelity : std::uint8_t { kCircuit, kStatistical, kIdeal };

/// Measured error statistics of one MVM activation phase.
struct MvmErrorStats {
  double sigma_mac = 0.0;   ///< RMS error in MAC units (after bias removal).
  double bias_gain = 1.0;   ///< Fitted multiplicative gain (IR droop).
  double rmse_mac = 0.0;    ///< Raw RMSE including the gain error.
  double rmse_normalized = 0.0;  ///< RMSE / std of the ideal MAC outputs —
                                 ///< the Fig. 9b metric.
  double sigma_normalized = 0.0; ///< Bias-removed sigma / ideal std. The
                                 ///< right scale for sign-flip (encoding)
                                 ///< errors: a uniform gain cannot flip
                                 ///< Sign().
  std::size_t n_pairs = 0;  ///< Activated differential pairs.
  int weight_bits = 1;
};

/// Runs `samples` random MVM phases through a scratch CrossbarArray with
/// uniformly random quantized weights and bipolar inputs, and fits the
/// error statistics. Deterministic in `seed`. Throws std::invalid_argument
/// when `n_pairs` exceeds the array's differential pair rows.
[[nodiscard]] MvmErrorStats calibrate_mvm_error(const rram::ArrayConfig& base,
                                                std::size_t n_pairs,
                                                int weight_bits,
                                                std::size_t samples,
                                                std::uint64_t seed);

}  // namespace oms::accel
