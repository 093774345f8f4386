// Fig. 9: in-memory computation errors vs number of activated rows, for
// 1/2/3 bits per cell.
//   (a) encoding errors — fraction of Sign() output bits that differ from
//       the ideal digital encoding when the MAC runs through the analog
//       model (activated rows = peaks per spectrum);
//   (b) search errors — normalized RMSE of the analog MVM output against
//       the exact MAC (activated rows = differential pairs per phase).
#include "bench_common.hpp"

#include "accel/error_model.hpp"
#include "accel/imc_encoder.hpp"
#include "hd/encoder.hpp"
#include "util/rng.hpp"

namespace {

/// Synthetic sparse spectra with exactly `peaks` peaks (odd counts keep
/// the accumulator off exact zeros; see tests/accel_imc_encoder_test.cpp).
void make_sparse(std::uint64_t seed, std::size_t peaks,
                 std::vector<std::uint32_t>& bins,
                 std::vector<float>& weights) {
  oms::util::Xoshiro256 rng(seed);
  bins.clear();
  weights.clear();
  std::uint32_t bin = 0;
  for (std::size_t i = 0; i < peaks; ++i) {
    bin += 1 + static_cast<std::uint32_t>(rng.below(100));
    bins.push_back(bin);
    weights.push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const oms::util::Cli cli(argc, argv);
  const double scale = cli.get_scaled("scale", 1.0);
  const std::size_t spectra = std::max<std::size_t>(
      6, static_cast<std::size_t>(24.0 * scale));
  const std::size_t calib_samples = std::max<std::size_t>(
      1024, static_cast<std::size_t>(4096.0 * scale));

  oms::bench::print_header(
      "Fig. 9: computation errors vs activated rows",
      "paper Fig. 9a (encoding bit errors) and Fig. 9b (search RMSE)");

  const std::size_t row_counts[] = {17, 33, 49, 65, 81, 97, 113, 127};

  // ---- (a) encoding errors ----
  oms::util::Table enc_table(
      {"activated rows", "1 bit/cell", "2 bits/cell", "3 bits/cell"});
  for (const std::size_t rows : row_counts) {
    std::vector<std::string> row = {std::to_string(rows)};
    for (const auto precision :
         {oms::hd::IdPrecision::k1Bit, oms::hd::IdPrecision::k2Bit,
          oms::hd::IdPrecision::k3Bit}) {
      oms::hd::EncoderConfig ecfg;
      ecfg.dim = 2048;
      ecfg.bins = 30000;
      ecfg.chunks = 128;
      ecfg.id_precision = precision;
      oms::hd::Encoder encoder(ecfg);

      std::vector<std::vector<std::uint32_t>> bin_lists(spectra);
      std::vector<std::vector<float>> weight_lists(spectra);
      for (std::size_t s = 0; s < spectra; ++s) {
        make_sparse(s * 13 + rows, rows, bin_lists[s], weight_lists[s]);
      }

      oms::accel::ImcEncoderConfig icfg;
      icfg.fidelity = oms::accel::Fidelity::kStatistical;
      icfg.calibration_samples = calib_samples;
      oms::accel::ImcEncoder imc(encoder, icfg);
      row.push_back(oms::util::Table::fmt_pct(
          imc.encoding_bit_error_rate(bin_lists, weight_lists), 2));
    }
    enc_table.add_row(row);
  }
  std::printf("(a) Encoding bit errors (Sign output vs ideal)\n%s\n",
              enc_table.str().c_str());

  // ---- (b) search errors ----
  oms::util::Table search_table(
      {"activated rows", "1 bit/cell", "2 bits/cell", "3 bits/cell"});
  for (const std::size_t rows : row_counts) {
    std::vector<std::string> row = {std::to_string(rows)};
    for (const int bits : {1, 2, 3}) {
      const auto stats = oms::accel::calibrate_mvm_error(
          oms::rram::ArrayConfig{}, rows, bits, calib_samples, 99);
      row.push_back(oms::util::Table::fmt(stats.rmse_normalized, 4));
    }
    search_table.add_row(row);
  }
  std::printf("(b) Search errors (normalized MVM RMSE)\n%s\n",
              search_table.str().c_str());

  std::printf(
      "Expected shape (paper): both metrics grow with activated rows and\n"
      "with bits/cell; the paper operates at 64 rows / 8-level cells.\n"
      "Absolute magnitudes differ from the fabricated chip; orderings and\n"
      "growth trends are the reproduced result (see EXPERIMENTS.md).\n");
  return 0;
}
