// Layer-by-layer replay of one engine pass through public functions only:
// ms::preprocess → the pipeline's query encoder path (hd::Encoder, or
// accel::ImcEncoder when the backend demands IMC-model encoding) →
// SpectralLibrary::mass_window → SearchBackend::search_batch on the
// pipeline's own backend → PSM construction → the batch and streaming FDR
// filters. Each layer runs alone, serially, under its own span, so its
// busy time is measured where the work happens; the rebuilt PSM list must
// be bit-identical to the engine's, or the per-layer numbers do not
// describe what the engine ran.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "core/search_backend.hpp"

namespace perfbench {

struct ReplayResult {
  // Busy seconds per layer.
  double preprocess_s = 0.0;
  double encode_s = 0.0;
  double window_s = 0.0;
  double search_s = 0.0;
  double rescore_s = 0.0;
  double fdr_batch_s = 0.0;
  double fdr_stream_s = 0.0;
  // Work counts.
  std::size_t dropped = 0;   ///< Rejected by ms::preprocess.
  std::size_t encoded = 0;
  std::size_t pairs = 0;     ///< Sum of precursor-window lengths.
  std::size_t id_rows = 0;   ///< ID-bank rows the query encoder materialized.
  std::size_t accepted = 0;
  std::size_t stream_released = 0;
  /// Share of the stream resolved when the streaming filter first released
  /// an accepted PSM (1.0 = only at the end).
  double first_release_frac = 1.0;
  oms::core::BackendStats backend;  ///< search_batch counters, this replay.
  std::uint64_t digest = 0;         ///< Same digest as the engine result's.

  [[nodiscard]] double total_s() const noexcept {
    return preprocess_s + encode_s + window_s + search_s + rescore_s +
           fdr_batch_s + fdr_stream_s;
  }
};

/// Replays `queries` against `pipeline`'s library and backend in blocks of
/// `block_size` (the engine's block size). Covers the paper configuration
/// (top-1 hits, recorded charge only, no injected bit errors) and throws
/// std::invalid_argument outside it.
[[nodiscard]] ReplayResult replay(oms::core::Pipeline& pipeline,
                                  const std::vector<oms::ms::Spectrum>& queries,
                                  std::size_t block_size);

/// Compares the replay with the engine result it mirrors (a failed output
/// check on mismatch) and adds the ms / hd / search / backend / fdr /
/// engine per-layer metrics. `engine_wall_s` is the wall time of the
/// engine pass over the same queries; `backend_pass` the backend counter
/// delta of that pass.
void report_replay(const ReplayResult& r, std::uint64_t engine_digest,
                   double engine_wall_s,
                   const oms::core::BackendStats& backend_pass,
                   std::uint32_t dim, Report& report);

}  // namespace perfbench
