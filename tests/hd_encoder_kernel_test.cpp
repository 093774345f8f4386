// The packed ID-Level encoder against an independent int32 oracle, on
// every kernel tier this CPU can run.
//
// The oracle decodes each ID row with IdBank::generate_row (itself pinned
// to the counter-hash definition below), multiplies by the LV chunk sign
// from LevelBank::chunk_sign, sums in int32, and binarizes one component
// at a time — none of the packed words, flip masks, int16 lanes or
// SIMD decode the encoder uses. Encoder::encode and Encoder::accumulate
// must match it bit for bit across precisions, chunkings, dimensions,
// peak counts (including the int16 flush past 4681 peaks), exact ties,
// and concurrent encodes racing to materialize a cold bank.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/query_engine.hpp"
#include "hd/encoder.hpp"
#include "hd/kernels.hpp"
#include "ms/synthetic.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace oms::hd {
namespace {

using kernels::Tier;

/// Every tier this CPU can run.
std::vector<Tier> runnable_tiers() {
  std::vector<Tier> tiers;
  for (const Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (t <= kernels::best_supported()) tiers.push_back(t);
  }
  return tiers;
}

/// Restores the active tier when a test ends, pass or fail.
class TierGuard {
 public:
  TierGuard() : saved_(kernels::active_tier()) {}
  ~TierGuard() { kernels::set_active_tier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  Tier saved_;
};

struct Spectrum {
  std::vector<std::uint32_t> bins;
  std::vector<float> weights;
};

Spectrum random_spectrum(std::uint64_t seed, std::size_t peaks,
                         std::uint32_t bins) {
  util::Xoshiro256 rng(seed);
  Spectrum s;
  for (std::size_t i = 0; i < peaks; ++i) {
    s.bins.push_back(static_cast<std::uint32_t>(rng.below(bins)));
    s.weights.push_back(static_cast<float>(rng.uniform(0.01, 1.0)));
  }
  return s;
}

/// Σ ID_i ⊗ LV_i in int32, one component at a time.
std::vector<std::int32_t> oracle_accumulate(const Encoder& enc,
                                            const Spectrum& s) {
  const std::uint32_t dim = enc.config().dim;
  const LevelBank& lv = enc.level_bank();
  const std::vector<std::uint32_t> levels = enc.quantize_levels(s.weights);
  std::vector<std::int32_t> acc(dim, 0);
  std::map<std::uint32_t, std::vector<std::int8_t>> rows;
  for (std::size_t i = 0; i < s.bins.size(); ++i) {
    std::vector<std::int8_t>& row = rows[s.bins[i]];
    if (row.empty()) {
      row.resize(dim);
      enc.id_bank().generate_row(s.bins[i], row);
    }
    for (std::uint32_t d = 0; d < dim; ++d) {
      acc[d] += row[d] * lv.chunk_sign(levels[i], d / lv.chunk_width());
    }
  }
  return acc;
}

/// Sign() with the parity tie-break, one bit at a time.
util::BitVec oracle_binarize(const std::vector<std::int32_t>& acc) {
  util::BitVec hv(acc.size());
  for (std::size_t d = 0; d < acc.size(); ++d) {
    if (acc[d] > 0 || (acc[d] == 0 && d % 2 == 1)) hv.set(d, true);
  }
  return hv;
}

/// encode() and accumulate() against the oracle on every runnable tier.
void expect_matches_oracle(const Encoder& enc, const Spectrum& s,
                           const std::string& what) {
  const std::vector<std::int32_t> want_acc = oracle_accumulate(enc, s);
  const util::BitVec want = oracle_binarize(want_acc);
  const TierGuard guard;
  for (const Tier tier : runnable_tiers()) {
    kernels::set_active_tier(tier);
    const std::string where =
        what + " tier=" + std::string(kernels::tier_name(tier));
    EXPECT_EQ(enc.encode(s.bins, s.weights), want) << where;
    std::vector<std::int32_t> acc(enc.config().dim, 0);
    enc.accumulate(s.bins, s.weights, acc);
    EXPECT_EQ(acc, want_acc) << where;
  }
}

EncoderConfig config(std::uint32_t dim, std::uint32_t chunks, IdPrecision p) {
  EncoderConfig cfg;
  cfg.dim = dim;
  cfg.chunks = chunks;
  cfg.bins = 3000;
  cfg.levels = 32;
  cfg.id_precision = p;
  cfg.seed = 0xC0FFEEULL + dim + chunks;
  return cfg;
}

TEST(EncoderKernel, GenerateRowMatchesCounterHashDefinition) {
  // The packed layout is the generator's own stream: word w of a row is
  // mix64(row_seed ^ w·φ), component 16w + k its nibble k — bit 0 the
  // sign, bits 1-2 the magnitude index modulo the magnitude count.
  for (const IdPrecision p :
       {IdPrecision::k1Bit, IdPrecision::k2Bit, IdPrecision::k3Bit}) {
    const std::uint64_t seed = 99;
    const IdBank bank(8, 200, p, seed);
    std::vector<std::int8_t> row(200);
    bank.generate_row(5, row);
    const std::uint64_t row_seed = util::hash_combine(seed, 5, 0x4944ULL);
    for (std::uint32_t d = 0; d < 200; ++d) {
      const std::uint64_t word =
          util::mix64(row_seed ^ ((d / 16) * 0x9e3779b97f4a7c15ULL));
      const std::uint64_t code = word >> (4 * (d % 16));
      const int mag =
          2 * static_cast<int>(((code >> 1) & 3) % magnitude_count(p)) + 1;
      ASSERT_EQ(row[d], (code & 1) ? mag : -mag)
          << "precision " << static_cast<int>(p) << " d " << d;
    }
  }
}

TEST(EncoderKernel, MatchesOracleAcrossPrecisionChunksDimsAndPeaks) {
  for (const IdPrecision p :
       {IdPrecision::k1Bit, IdPrecision::k2Bit, IdPrecision::k3Bit}) {
    for (const std::uint32_t dim : {64U, 192U, 8192U}) {
      // chunks ∈ {1, 256, dim} where it divides dim, plus an odd chunk
      // width (3) whose boundaries fall inside packed words.
      std::vector<std::uint32_t> chunkings = {1, dim};
      if (dim % 256 == 0) chunkings.push_back(256);
      if (dim == 192) chunkings.push_back(64);
      for (const std::uint32_t chunks : chunkings) {
        const Encoder enc(config(dim, chunks, p));
        for (const std::size_t peaks : {0U, 1U, 50U, 150U}) {
          const Spectrum s = random_spectrum(peaks * 7 + dim + chunks, peaks,
                                             enc.config().bins);
          expect_matches_oracle(
              enc, s,
              "p=" + std::to_string(static_cast<int>(p)) +
                  " dim=" + std::to_string(dim) +
                  " chunks=" + std::to_string(chunks) +
                  " peaks=" + std::to_string(peaks));
        }
      }
    }
  }
}

TEST(EncoderKernel, DimsBeyondOneKernelPassMatchOracle) {
  // 16576 = 2·8192 + 192: the SIMD kernels walk rows in passes of 8192
  // components, so this covers two full passes, a short one, and a
  // scalar tail, with chunk boundaries (width 259) inside packed words.
  const Encoder enc(config(16576, 64, IdPrecision::k3Bit));
  for (const std::size_t peaks : {50U, 150U}) {
    expect_matches_oracle(enc, random_spectrum(peaks, peaks, 3000),
                          "dim=16576 peaks=" + std::to_string(peaks));
  }
}

TEST(EncoderKernel, DuplicateBinsSumEveryCopy) {
  const Encoder enc(config(8192, 256, IdPrecision::k3Bit));
  Spectrum s = random_spectrum(17, 40, 50);  // 40 peaks over 50 bins
  s.bins.insert(s.bins.end(), {7, 7, 7, 8, 7});
  s.weights.insert(s.weights.end(), {1.0F, 0.5F, 1.0F, 0.2F, 0.01F});
  expect_matches_oracle(enc, s, "duplicates");
}

TEST(EncoderKernel, LongPeakListsFlushInt16IntoInt32) {
  // One bin repeated at one weight: every product has the same sign, so
  // |acc| reaches copies · 7 on the magnitude-7 components. 4681 · 7 =
  // 32767 is the last exact int16 sum; 5000 copies only stay exact if the
  // encoder flushes into int32.
  const Encoder enc(config(1024, 256, IdPrecision::k3Bit));
  for (const std::size_t copies : {4681U, 4682U, 5000U}) {
    Spectrum s;
    s.bins.assign(copies, 11);
    s.weights.assign(copies, 0.75F);
    const std::vector<std::int32_t> acc = oracle_accumulate(enc, s);
    ASSERT_EQ(*std::max_element(acc.begin(), acc.end()),
              static_cast<std::int32_t>(copies * 7));
    expect_matches_oracle(enc, s, "copies=" + std::to_string(copies));
  }
  // A long mixed list crosses the flush boundary with distinct rows too.
  expect_matches_oracle(enc, random_spectrum(3, 9500, enc.config().bins),
                        "mixed 9500");
}

TEST(EncoderKernel, ExactTiesFollowTheOddIndexRule) {
  // One bin at the top and bottom intensity level: the products cancel to
  // exactly 0 on every chunk where the two levels' signs differ.
  for (const std::uint32_t chunks : {256U, 8192U}) {
    const Encoder enc(config(8192, chunks, IdPrecision::k3Bit));
    Spectrum s;
    s.bins = {42, 42};
    s.weights = {1.0F, 0.001F};
    const std::vector<std::int32_t> acc = oracle_accumulate(enc, s);
    std::size_t even_ties = 0;
    std::size_t odd_ties = 0;
    for (std::size_t d = 0; d < acc.size(); ++d) {
      if (acc[d] == 0) ++(d % 2 == 0 ? even_ties : odd_ties);
    }
    ASSERT_GT(even_ties, 100U);
    ASSERT_GT(odd_ties, 100U);
    expect_matches_oracle(enc, s, "ties chunks=" + std::to_string(chunks));
  }
  // No peaks at all: every component ties.
  const Encoder enc(config(192, 1, IdPrecision::k1Bit));
  const util::BitVec empty = enc.encode({}, {});
  for (std::size_t d = 0; d < 192; ++d) EXPECT_EQ(empty.get(d), d % 2 == 1);
}

TEST(EncoderKernel, ConcurrentEncodesFromAColdBank) {
  // Four threads encode the same spectra on one shared Encoder whose bank
  // starts empty, racing to materialize the same rows, while a fifth
  // polls materialized()/row(). Every encode must match the oracle, and
  // every distinct bin must be materialized exactly once.
  const Encoder enc(config(8192, 256, IdPrecision::k3Bit));
  std::vector<Spectrum> spectra;
  std::vector<util::BitVec> want;
  for (std::uint64_t i = 0; i < 24; ++i) {
    spectra.push_back(random_spectrum(1000 + i, 50, 400));
    want.push_back(oracle_binarize(oracle_accumulate(enc, spectra.back())));
  }
  ASSERT_EQ(enc.id_bank().materialized_count(), 0U);

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::vector<std::int8_t> fresh(8192);
    while (!done.load(std::memory_order_acquire)) {
      for (std::uint32_t bin = 0; bin < 400; bin += 37) {
        if (!enc.id_bank().materialized(bin)) continue;
        const IdRow row = enc.id_bank().row(bin);
        enc.id_bank().generate_row(bin, fresh);
        for (std::size_t d = 0; d < row.size(); d += 97) {
          if (row[d] != fresh[d]) ++mismatches[0];
        }
      }
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t k = 0; k < spectra.size(); ++k) {
        const std::size_t i = (k + static_cast<std::size_t>(t) * 5) %
                              spectra.size();
        if (enc.encode(spectra[i].bins, spectra[i].weights) != want[i]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  done.store(true, std::memory_order_release);
  reader.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;

  std::vector<std::uint32_t> distinct;
  for (const Spectrum& s : spectra) {
    distinct.insert(distinct.end(), s.bins.begin(), s.bins.end());
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(enc.id_bank().materialized_count(), distinct.size());
  EXPECT_EQ(enc.id_bank().resident_bytes(), distinct.size() * 8192 / 2);
}

TEST(EncoderKernel, AvxFiveTwelveEncoderPathNeedsBw) {
  // The encoder never runs above the popcount tier it is asked for, and
  // the scalar and AVX2 requests are always honoured.
  EXPECT_EQ(kernels::encoder_tier(Tier::kScalar), Tier::kScalar);
  if (kernels::best_supported() >= Tier::kAvx2) {
    EXPECT_EQ(kernels::encoder_tier(Tier::kAvx2), Tier::kAvx2);
  }
  EXPECT_LE(kernels::encoder_tier(Tier::kAvx512), kernels::best_supported());
  EXPECT_GE(kernels::encoder_tier(Tier::kAvx512),
            std::min(Tier::kAvx2, kernels::best_supported()));
}

TEST(EncoderKernel, EnginePublishesIdBankGauges) {
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 60;
  wcfg.query_count = 30;
  wcfg.seed = 4242;
  const ms::Workload wl = ms::generate_workload(wcfg);

  core::PipelineConfig pcfg;
  pcfg.encoder.dim = 1024;
  pcfg.encoder.bins = pcfg.preprocess.bin_count();
  pcfg.encoder.chunks = 64;
  pcfg.backend_name = "ideal-hd";
  core::Pipeline pipeline(pcfg);
  pipeline.set_library(wl.references);

  obs::MetricsRegistry metrics;
  core::QueryEngineConfig ecfg;
  ecfg.metrics = &metrics;
  core::QueryEngine engine(pipeline, ecfg);
  engine.submit_batch(wl.queries);
  (void)engine.drain();

  const obs::Snapshot snap = metrics.snapshot();
  const double rows = snap.gauge("encoder.id_rows");
  EXPECT_GT(rows, 0.0);
  EXPECT_LE(rows, static_cast<double>(pcfg.encoder.bins));
  EXPECT_EQ(snap.gauge("encoder.id_bank_bytes"), rows * 1024 / 2);
}

}  // namespace
}  // namespace oms::hd
