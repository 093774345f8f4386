// Encoding-method ablation (paper §3.2): ID-Level encoding vs the
// permutation-based and random-projection alternatives from prior HD work.
// All three encode the same preprocessed workload at the same dimension;
// search and FDR are identical, so identification counts isolate the
// encoder. The paper's claim: ID-Level "effectively captures key features
// such as m/z values and peak intensities" that the others blur.
#include "bench_common.hpp"

#include "core/fdr.hpp"
#include "hd/alt_encoders.hpp"
#include "hd/encoder.hpp"
#include "hd/search.hpp"
#include "ms/library.hpp"
#include "ms/synthesizer.hpp"
#include "util/thread_pool.hpp"

namespace {

using oms::util::BitVec;

/// Encodes every binned spectrum with the given callable.
template <typename EncodeFn>
std::vector<BitVec> encode_all(const std::vector<oms::ms::BinnedSpectrum>& in,
                               const EncodeFn& encode) {
  std::vector<BitVec> out(in.size());
  oms::util::ThreadPool::global().parallel_for(
      0, in.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = encode(in[i].bins, in[i].weights);
        }
      });
  return out;
}

/// Shared mini-pipeline: search + FDR over pre-encoded hypervectors.
std::size_t identifications(const oms::ms::SpectralLibrary& library,
                            const std::vector<BitVec>& ref_hvs,
                            const std::vector<oms::ms::BinnedSpectrum>& queries,
                            const std::vector<BitVec>& query_hvs) {
  std::vector<oms::core::Psm> psms(queries.size());
  std::vector<std::uint8_t> valid(queries.size(), 0);
  oms::util::ThreadPool::global().parallel_for(
      0, queries.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const auto [first, last] =
              library.mass_window(queries[i].precursor_mass, 500.0);
          const auto hit =
              oms::hd::best_match(query_hvs[i], ref_hvs, first, last);
          if (!hit.valid()) continue;
          const auto& ref = library[hit.reference_index];
          psms[i].query_id = queries[i].id;
          psms[i].peptide = ref.peptide;
          psms[i].score = hit.similarity;
          psms[i].is_decoy = ref.is_decoy;
          psms[i].mass_shift =
              queries[i].precursor_mass - ref.precursor_mass;
          valid[i] = 1;
        }
      });
  std::vector<oms::core::Psm> scored;
  for (std::size_t i = 0; i < psms.size(); ++i) {
    if (valid[i]) scored.push_back(std::move(psms[i]));
  }
  return oms::core::filter_at_fdr_standard_open(scored, 0.01).size();
}

}  // namespace

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  const double scale = cli.get_scaled("scale", 0.5);
  const auto dim = static_cast<std::uint32_t>(cli.get("dim", 4096L));

  oms::bench::print_header(
      "Ablation: encoding methods (ID-Level vs permutation vs projection)",
      "paper §3.2 (choice of ID-Level encoding over prior HD encoders)");

  auto wl_cfg = oms::bench::bench_workloads(scale).iprg;
  const oms::ms::Workload wl = oms::ms::generate_workload(wl_cfg);

  // Shared preprocessing + decoys + library.
  const oms::ms::PreprocessConfig pre;
  std::vector<oms::ms::BinnedSpectrum> entries =
      oms::ms::preprocess_all(wl.references, pre);
  {
    std::vector<oms::ms::Spectrum> decoys;
    const oms::ms::SynthesisParams params{};
    for (const auto& t : wl.references) {
      decoys.push_back(oms::ms::make_decoy_spectrum(t, params, t.id + 7));
    }
    auto decoy_entries = oms::ms::preprocess_all(decoys, pre);
    entries.insert(entries.end(),
                   std::make_move_iterator(decoy_entries.begin()),
                   std::make_move_iterator(decoy_entries.end()));
  }
  const oms::ms::SpectralLibrary library(std::move(entries));
  const std::vector<oms::ms::BinnedSpectrum> ordered(
      library.entries().begin(), library.entries().end());
  const std::vector<oms::ms::BinnedSpectrum> queries =
      oms::ms::preprocess_all(wl.queries, pre);
  std::printf("workload: %zu queries, %zu targets + %zu decoys, D=%u\n\n",
              queries.size(), library.target_count(), library.decoy_count(),
              dim);

  oms::util::Table table({"encoder", "identifications"});

  // ID-Level (this work / HyperOMS lineage).
  {
    oms::hd::EncoderConfig cfg;
    cfg.dim = dim;
    cfg.bins = pre.bin_count();
    cfg.chunks = dim / 32;
    cfg.id_precision = oms::hd::IdPrecision::k3Bit;
    oms::hd::Encoder encoder(cfg);
    const auto refs = encode_all(ordered, [&](auto b, auto w) {
      return encoder.encode(b, w);
    });
    const auto qs = encode_all(queries, [&](auto b, auto w) {
      return encoder.encode(b, w);
    });
    table.add_row({"ID-Level (this work)",
                   std::to_string(identifications(library, refs, queries, qs))});
  }

  // Permutation-based.
  {
    const oms::hd::PermutationEncoder encoder(dim, 32, 1234);
    const auto refs = encode_all(ordered, [&](auto b, auto w) {
      return encoder.encode(b, w);
    });
    const auto qs = encode_all(queries, [&](auto b, auto w) {
      return encoder.encode(b, w);
    });
    table.add_row({"Permutation (F5-HD style)",
                   std::to_string(identifications(library, refs, queries, qs))});
  }

  // Random projection.
  {
    const oms::hd::RandomProjectionEncoder encoder(dim, 1234);
    const auto refs = encode_all(ordered, [&](auto b, auto w) {
      return encoder.encode(b, w);
    });
    const auto qs = encode_all(queries, [&](auto b, auto w) {
      return encoder.encode(b, w);
    });
    table.add_row({"Random projection",
                   std::to_string(identifications(library, refs, queries, qs))});
  }

  std::printf("%s\n", table.str().c_str());
  std::printf(
      "Expected shape (paper §3.2): ID-Level encoding identifies at least\n"
      "as many peptides as either alternative at matched dimension.\n");
  return 0;
}
