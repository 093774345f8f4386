#include "replay.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>

#include "accel/imc_encoder.hpp"
#include "core/streaming_fdr.hpp"
#include "hd/encoder.hpp"
#include "ms/preprocess.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using oms::core::Psm;

/// Salt of the engine's query-side keyed encoding noise ("QUER",
/// core/query_engine.cpp); the replay must draw the same noise.
constexpr std::uint64_t kQuerySalt = 0x51554552ULL;

/// The query encoder path the engine runs for this pipeline: exact
/// ID-Level encoding, or the IMC statistical model on top of it.
class QueryEncoder {
 public:
  explicit QueryEncoder(const oms::core::Pipeline& p)
      : encoder_(p.config().encoder) {
    const oms::core::PipelineConfig& cfg = p.config();
    if (oms::core::BackendRegistry::instance().imc_encoding(
            p.backend_name(), cfg.backend_options)) {
      imc_ = std::make_unique<oms::accel::ImcEncoder>(
          encoder_, oms::accel::ImcEncoderConfig{
                        cfg.backend_options.array,
                        oms::accel::Fidelity::kStatistical,
                        cfg.backend_options.calibration_samples, cfg.seed});
    }
  }

  /// Materializes the ID rows and noise calibrations a block needs.
  void prepare(std::span<const oms::ms::BinnedSpectrum> block) {
    std::vector<std::uint32_t> used;
    for (const auto& s : block) {
      used.insert(used.end(), s.bins.begin(), s.bins.end());
    }
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    encoder_.id_bank().ensure(used);
    if (imc_) {
      std::vector<std::size_t> peak_counts;
      peak_counts.reserve(block.size());
      for (const auto& s : block) peak_counts.push_back(s.peak_count());
      imc_->precalibrate(peak_counts);
    }
  }

  [[nodiscard]] oms::util::BitVec encode(
      const oms::ms::BinnedSpectrum& s) const {
    if (imc_) {
      return imc_->encode_keyed(s.bins, s.weights,
                                oms::util::hash_combine(kQuerySalt, s.id));
    }
    return encoder_.encode(s.bins, s.weights);
  }

  [[nodiscard]] std::size_t materialized_rows() const noexcept {
    const oms::hd::IdBank& bank = encoder_.id_bank();
    std::size_t rows = 0;
    for (std::uint32_t b = 0; b < bank.bin_count(); ++b) {
      rows += bank.materialized(b) ? 1 : 0;
    }
    return rows;
  }

 private:
  oms::hd::Encoder encoder_;
  std::unique_ptr<oms::accel::ImcEncoder> imc_;  ///< Reads encoder_.
};

/// Streaming filter in the engine's grouping, fed in engine block order.
class StreamFilter {
 public:
  explicit StreamFilter(bool grouped) {
    if (grouped) {
      grouped_ = std::make_unique<oms::core::StreamingGroupedFdr>(
          oms::core::StreamingGroupedFdr::standard_open());
    } else {
      plain_ = std::make_unique<oms::core::StreamingFdr>();
    }
  }
  void add(const Psm& psm, std::size_t tag) {
    if (grouped_) {
      grouped_->add(psm, tag);
    } else {
      plain_->add(psm, tag);
    }
  }
  [[nodiscard]] std::size_t emit(double threshold, std::size_t max_future) {
    return grouped_ ? grouped_->emit_confident(threshold, max_future).size()
                    : plain_->emit_confident(threshold, max_future).size();
  }

 private:
  std::unique_ptr<oms::core::StreamingGroupedFdr> grouped_;
  std::unique_ptr<oms::core::StreamingFdr> plain_;
};

}  // namespace

ReplayResult replay(oms::core::Pipeline& pipeline,
                    const std::vector<oms::ms::Spectrum>& queries,
                    std::size_t block_size) {
  const oms::core::PipelineConfig& cfg = pipeline.config();
  if (cfg.rescore_top_k > 1 || cfg.charge_tolerant || cfg.injected_ber > 0) {
    throw std::invalid_argument(
        "replay covers top-1, recorded-charge, error-free searches only");
  }
  block_size = std::max<std::size_t>(1, block_size);
  ReplayResult r;

  // ms: preprocessing, in admission order.
  std::vector<oms::ms::BinnedSpectrum> kept;
  kept.reserve(queries.size());
  Clock::time_point t0 = Clock::now();
  for (const oms::ms::Spectrum& q : queries) {
    oms::ms::BinnedSpectrum b;
    if (oms::ms::preprocess(q, cfg.preprocess, b)) {
      kept.push_back(std::move(b));
    } else {
      ++r.dropped;
    }
  }
  r.preprocess_s = seconds_since(t0);
  r.encoded = kept.size();

  // hd: query encoding per engine block. ID rows and noise calibrations
  // are materialized first, untimed, as the engine's warm-up pass did.
  QueryEncoder encoder(pipeline);
  const auto block_of = [&](std::size_t lo) {
    return std::span<const oms::ms::BinnedSpectrum>(kept).subspan(
        lo, std::min(block_size, kept.size() - lo));
  };
  for (std::size_t lo = 0; lo < kept.size(); lo += block_size) {
    encoder.prepare(block_of(lo));
  }
  r.id_rows = encoder.materialized_rows();
  std::vector<oms::util::BitVec> hvs(kept.size());
  t0 = Clock::now();
  for (std::size_t lo = 0; lo < kept.size(); lo += block_size) {
    encoder.prepare(block_of(lo));
    for (std::size_t i = lo; i < lo + block_of(lo).size(); ++i) {
      hvs[i] = encoder.encode(kept[i]);
    }
  }
  r.encode_s = seconds_since(t0);

  // core: precursor-mass windows.
  const double window =
      cfg.open_search ? cfg.oms_window_da : cfg.standard_window_da;
  const oms::ms::SpectralLibrary& lib = pipeline.library();
  std::vector<oms::core::Query> searches;
  std::vector<std::size_t> slot_of;  ///< kept index per search.
  t0 = Clock::now();
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const auto [first, last] = lib.mass_window(kept[i].precursor_mass, window);
    if (first >= last) continue;
    searches.push_back(oms::core::Query{&hvs[i], first, last, kept[i].id});
    slot_of.push_back(i);
    r.pairs += last - first;
  }
  r.window_s = seconds_since(t0);

  // search: the pipeline's own backend, one call per engine block (the
  // block's queries with a non-empty window, possibly none).
  const std::shared_ptr<oms::core::SearchBackend> backend =
      pipeline.shared_backend();
  const oms::core::BackendStats before = backend->stats();
  std::vector<std::vector<oms::hd::SearchHit>> hits;
  hits.reserve(searches.size());
  t0 = Clock::now();
  std::size_t first_search = 0;
  for (std::size_t lo = 0; lo < kept.size(); lo += block_size) {
    std::size_t end = first_search;
    while (end < searches.size() && slot_of[end] < lo + block_size) ++end;
    auto part = backend->search_batch(
        std::span<const oms::core::Query>(searches).subspan(
            first_search, end - first_search),
        1);
    for (auto& h : part) hits.push_back(std::move(h));
    first_search = end;
  }
  r.search_s = seconds_since(t0);
  r.backend = backend->stats().since(before);

  // PSMs, in admission order (searches are in ascending kept order).
  oms::core::PipelineResult result;
  std::vector<std::size_t> psm_block;  ///< Engine block of each PSM.
  t0 = Clock::now();
  for (std::size_t j = 0; j < searches.size(); ++j) {
    if (hits[j].empty()) continue;
    const oms::ms::BinnedSpectrum& q = kept[slot_of[j]];
    const oms::hd::SearchHit& best = hits[j].front();
    const oms::ms::BinnedSpectrum& ref = lib[best.reference_index];
    Psm psm;
    psm.query_id = q.id;
    psm.peptide = ref.peptide;
    psm.score = best.similarity;
    psm.is_decoy = ref.is_decoy;
    psm.mass_shift = q.precursor_mass - ref.precursor_mass;
    psm.reference_index = best.reference_index;
    result.psms.push_back(std::move(psm));
    psm_block.push_back(slot_of[j] / block_size);
  }
  r.rescore_s = seconds_since(t0);

  // fdr: the drain-time batch filter.
  t0 = Clock::now();
  result.accepted =
      cfg.grouped_fdr
          ? oms::core::filter_at_fdr_standard_open(result.psms,
                                                   cfg.fdr_threshold)
          : oms::core::filter_at_fdr(result.psms, cfg.fdr_threshold);
  r.fdr_batch_s = seconds_since(t0);
  r.accepted = result.accepted.size();
  r.digest = digest(result);

  // fdr: the rolling filter of a closed stream (every query submitted,
  // PSMs arriving block by block). A query is resolved once dropped,
  // empty-windowed or scored; the unresolved rest may still be decoys.
  StreamFilter stream(cfg.grouped_fdr);
  const std::size_t blocks = (kept.size() + block_size - 1) / block_size;
  std::size_t next_psm = 0;
  bool released_any = false;
  t0 = Clock::now();
  for (std::size_t b = 0; b < blocks; ++b) {
    for (; next_psm < psm_block.size() && psm_block[next_psm] == b;
         ++next_psm) {
      stream.add(result.psms[next_psm], next_psm);
    }
    const std::size_t resolved =
        r.dropped + std::min(kept.size(), (b + 1) * block_size);
    const std::size_t released = stream.emit(
        cfg.fdr_threshold, queries.size() - resolved);
    if (released > 0 && !released_any) {
      released_any = true;
      r.first_release_frac = static_cast<double>(resolved) /
                             static_cast<double>(queries.size());
    }
    r.stream_released += released;
  }
  r.fdr_stream_s = seconds_since(t0);
  return r;
}

void report_replay(const ReplayResult& r, std::uint64_t engine_digest,
                   double engine_wall_s,
                   const oms::core::BackendStats& backend_pass,
                   std::uint32_t dim, Report& report) {
  const bool same = r.digest == engine_digest;
  std::printf("replay digest %016" PRIx64 " engine digest %016" PRIx64
              " -> %s\n",
              r.digest, engine_digest,
              same ? "match" : "MISMATCH: per-layer numbers not comparable");
  report.check(same, "replay PSM digest equals the engine's");
  report.check(r.stream_released == r.accepted,
               "streaming FDR releases exactly the batch-accepted PSMs");
  report.check(r.backend.phases_executed == backend_pass.phases_executed &&
                   r.backend.shard_entries == backend_pass.shard_entries &&
                   r.backend.query_blocks == backend_pass.query_blocks,
               "replay backend counters equal the engine pass's");

  const double searched = static_cast<double>(r.encoded);
  const double pairs = static_cast<double>(r.pairs);
  report.set("replay.digest_match", same ? 1.0 : 0.0);
  report.set("ms.preprocess_s", r.preprocess_s);
  report.set("ms.dropped", static_cast<double>(r.dropped));
  report.set("hd.encode_s", r.encode_s);
  report.set("hd.encode_us_per_query",
             searched > 0 ? r.encode_s * 1e6 / searched : 0.0);
  report.set("hd.id_rows", static_cast<double>(r.id_rows));
  report.set("hd.id_bank_mb",
             static_cast<double>(r.id_rows) * dim / (1024.0 * 1024.0));
  report.set("search.batch_s", r.search_s);
  report.set("search.pairs", pairs);
  report.set("search.ns_per_pair", pairs > 0 ? r.search_s * 1e9 / pairs : 0.0);
  report.set("search.ref_gb_computed", pairs * (dim / 8.0) / 1e9);
  report.set("backend.phases",
             static_cast<double>(backend_pass.phases_executed));
  report.set("backend.shard_entries",
             static_cast<double>(backend_pass.shard_entries));
  report.set("backend.query_blocks",
             static_cast<double>(backend_pass.query_blocks));
  report.set("backend.extent_count",
             static_cast<double>(backend_pass.extent_count));
  report.set("backend.kernel", kernel_tier_code(backend_pass.kernel));
  report.set("fdr.batch_s", r.fdr_batch_s);
  report.set("fdr.stream_s", r.fdr_stream_s);
  report.set("fdr.first_release_frac", r.first_release_frac);
  report.set("engine.wall_s", engine_wall_s);
  report.set("engine.replay_s", r.total_s());
  report.set("engine.parallel_speedup",
             engine_wall_s > 0 ? r.total_s() / engine_wall_s : 0.0);
}

}  // namespace perfbench
