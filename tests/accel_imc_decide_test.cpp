// The IMC query encoder's noise decision (accel/imc_decide.hpp) against
// oracles that draw util::counter_normal for every component.
//
// ImcEncoder::encode_keyed sets component d iff fl(a + σ·z) > 0. The
// decision settles that from a sign table and bound tables instead of
// drawing z, and only the components it leaves open are drawn. These tests
// pin, on every kernel tier this CPU runs:
//   - encode_keyed against a per-dimension full-draw oracle over peak
//     counts, ID precisions and device noise levels (one so noisy that the
//     8.66σ margin never fires);
//   - the one-component helper at chosen (a, σ, h1, h2): u2 on the guard
//     band edges and at 0, 1/4, 1/2, 3/4; u1 at the exponent edges and at
//     h1 >> 11 = 2^53 − 1, where u1 rounds to 1.0 and r = 0; a = 0 and a
//     within one of |σ·z|;
//   - the tiered kernel against the helper, component by component,
//     including dims that end inside a word and σ outside the tables;
//   - the noise_draws counter against the helper's undecided count, and
//     the engine's encoder.noise_draws gauge and split encode / window
//     stage histograms;
//   - concurrent encode_keyed on one shared encoder (also under the `tsan`
//     ctest label).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "accel/imc_decide.hpp"
#include "accel/imc_encoder.hpp"
#include "core/pipeline.hpp"
#include "core/query_engine.hpp"
#include "hd/encoder.hpp"
#include "hd/kernels.hpp"
#include "ms/synthetic.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace oms::accel {
namespace {

using hd::kernels::Tier;

std::vector<Tier> runnable_tiers() {
  std::vector<Tier> tiers;
  for (const Tier t : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
    if (t <= hd::kernels::best_supported()) tiers.push_back(t);
  }
  return tiers;
}

/// Restores the active tier when a test ends, pass or fail.
class TierGuard {
 public:
  TierGuard() : saved_(hd::kernels::active_tier()) {}
  ~TierGuard() { hd::kernels::set_active_tier(saved_); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;

 private:
  Tier saved_;
};

/// The bit a full draw gives: fl(a + σ·z) > 0.
bool drawn_bit(double a, double sigma, std::uint64_t h1, std::uint64_t h2) {
  return a + sigma * util::counter_normal_from({h1, h2}) > 0.0;
}

/// encode_keyed's noise key for a stream (see ImcEncoder::encode_keyed).
std::uint64_t noise_key(const ImcEncoderConfig& cfg, std::uint64_t stream) {
  return util::hash_combine(cfg.seed, stream, 0xE2C0ULL);
}

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

hd::EncoderConfig encoder_config(hd::IdPrecision p) {
  hd::EncoderConfig cfg;
  cfg.dim = 2048;
  cfg.bins = 3000;
  cfg.levels = 16;
  cfg.chunks = 64;
  cfg.id_precision = p;
  cfg.seed = 91;
  return cfg;
}

/// An encoder device with room for 150 activated rows (default arrays
/// hold 128 differential pairs).
ImcEncoderConfig device() {
  ImcEncoderConfig c;
  c.array.rows = 512;
  c.calibration_samples = 512;
  return c;
}

/// The default cells, noisier ones, near-noiseless ones, and ones so noisy
/// that no component lies beyond the 8.66σ margin.
std::vector<ImcEncoderConfig> devices() {
  std::vector<ImcEncoderConfig> d(4, device());
  d[1].array.sense_sigma = 0.03;
  d[1].array.wire_sigma = 0.06;
  d[2].array.sense_sigma = 1e-6;
  d[2].array.wire_sigma = 1e-6;
  d[3].array.sense_sigma = 3.0;
  d[3].array.wire_sigma = 3.0;
  return d;
}

TEST(ImcDecide, EncodeKeyedMatchesFullDrawOracleOnEveryTier) {
  const TierGuard guard;
  const std::vector<ImcEncoderConfig> devs = devices();
  for (const auto p : {hd::IdPrecision::k1Bit, hd::IdPrecision::k2Bit,
                       hd::IdPrecision::k3Bit}) {
    const hd::Encoder enc(encoder_config(p));
    const std::uint32_t dim = enc.config().dim;
    for (std::size_t dev = 0; dev < devs.size(); ++dev) {
      ImcEncoder imc(enc, devs[dev]);
      std::size_t beyond_margin = 0;
      for (const std::size_t peaks : {1U, 5U, 50U, 150U}) {
        const Spectrum s =
            random_spectrum(peaks * 13 + dev, peaks, enc.config().bins);
        const std::vector<std::size_t> counts{peaks};
        imc.precalibrate(counts);
        std::vector<std::int32_t> acc(dim, 0);
        enc.accumulate(s.bins, s.weights, acc);
        const double sigma = imc.accumulator_sigma(peaks);
        for (const std::uint64_t stream : {3ULL, 987654321ULL}) {
          const std::uint64_t key = noise_key(devs[dev], stream);
          util::BitVec want(dim);
          for (std::uint32_t d = 0; d < dim; ++d) {
            const util::CounterNormalHashes h =
                util::counter_normal_hashes(key, d);
            want.set(d, drawn_bit(acc[d], sigma, h.h1, h.h2));
            if (std::abs(acc[d]) > sigma * util::kCounterNormalBound) {
              ++beyond_margin;
            }
          }
          for (const Tier tier : runnable_tiers()) {
            hd::kernels::set_active_tier(tier);
            EXPECT_EQ(imc.encode_keyed(s.bins, s.weights, stream), want)
                << "tier " << hd::kernels::tier_name(tier) << " precision "
                << static_cast<int>(p) << " device " << dev << " peaks "
                << peaks << " stream " << stream;
          }
        }
      }
      if (dev == 3) {
        EXPECT_EQ(beyond_margin, 0U) << "the margin fired on device 3";
      } else {
        EXPECT_GT(beyond_margin, 0U) << "device " << dev;
      }
    }
  }
}

/// h1 with h1 >> 11 = k (the low 11 bits do not reach u1).
std::uint64_t h1_at(std::uint64_t k, std::uint64_t low = 0x5A5) {
  return k << 11 | (low & 0x7FF);
}
/// h2 with h2 >> 11 = j, i.e. u2 = j · 2^-53.
std::uint64_t h2_at(std::uint64_t j, std::uint64_t low = 0x3C3) {
  return j << 11 | (low & 0x7FF);
}

/// Every decided (a, σ, h1, h2) must be the drawn bit; returns the number
/// decided. a runs over 0, ±1, ±2 and the integers within one of |σ·z|.
std::size_t expect_helper_sound(double sigma, std::uint64_t h1,
                                std::uint64_t h2, const std::string& what) {
  const double t = std::fabs(sigma * util::counter_normal_from({h1, h2}));
  std::vector<double> as = {0.0, 1.0, -1.0, 2.0, -2.0};
  for (double m = std::floor(t) - 1.0; m <= std::ceil(t) + 1.0; m += 1.0) {
    if (m > 2.0) {
      as.push_back(m);
      as.push_back(-m);
    }
  }
  std::size_t decided = 0;
  for (const double a : as) {
    const NoiseDecision got = decide_noisy_sign(a, sigma, h1, h2);
    if (got == NoiseDecision::kUndecided) continue;
    ++decided;
    EXPECT_EQ(got == NoiseDecision::kSet, drawn_bit(a, sigma, h1, h2))
        << what << " a=" << a << " sigma=" << sigma << " h1=" << h1
        << " h2=" << h2;
  }
  return decided;
}

TEST(ImcDecide, HelperAtGuardBandsAndRadiusEdges) {
  const auto bands = cosine_guard_bands();
  // One band around u2 = 1/4 (θ = π/2) and one around 3/4 (θ = 3π/2).
  ASSERT_EQ(bands.size(), 2U);
  const std::uint64_t quarter = std::uint64_t{1} << 51;
  EXPECT_LE(bands[0].first, quarter);
  EXPECT_GE(bands[0].second, quarter);
  EXPECT_LE(bands[1].first, 3 * quarter);
  EXPECT_GE(bands[1].second, 3 * quarter);

  std::vector<std::uint64_t> js = {0, 1, quarter - 1, quarter, quarter + 1,
                                   2 * quarter - 1, 2 * quarter,
                                   2 * quarter + 1, 3 * quarter - 1,
                                   3 * quarter, 3 * quarter + 1,
                                   (std::uint64_t{1} << 53) - 1};
  for (const auto& [lo, hi] : bands) {
    for (const std::uint64_t j : {lo - 1, lo, lo + 1, hi - 1, hi, hi + 1}) {
      js.push_back(j);
    }
  }
  const std::uint64_t two52 = std::uint64_t{1} << 52;
  std::vector<std::uint64_t> ks = {0,         1,         two52 - 1,
                                   two52,     two52 + 1, 2 * two52 - 2,
                                   2 * two52 - 1};
  util::Xoshiro256 rng(5);
  for (int i = 0; i < 16; ++i) ks.push_back(rng.next() >> 11);

  std::size_t decided = 0;
  for (const double sigma : {0.7, 3.7, 40.0, 1000.0}) {
    for (const std::uint64_t k : ks) {
      for (const std::uint64_t j : js) {
        decided += expect_helper_sound(
            sigma, h1_at(k), h2_at(j),
            "k=" + std::to_string(k) + " j=" + std::to_string(j));
      }
    }
  }
  EXPECT_GT(decided, 0U);

  // a = 0: the bit is the sign of z. Outside the bands u2 gives the sign
  // of cos θ, so the helper decides wherever r > 0, and inside a band it
  // cannot.
  for (const auto& [lo, hi] : bands) {
    for (const std::uint64_t j : {lo - 1, hi + 1}) {
      EXPECT_NE(decide_noisy_sign(0.0, 3.7, h1_at(two52), h2_at(j)),
                NoiseDecision::kUndecided)
          << j;
    }
    for (const std::uint64_t j : {lo, (lo + hi) / 2, hi}) {
      EXPECT_EQ(decide_noisy_sign(0.0, 3.7, h1_at(two52), h2_at(j)),
                NoiseDecision::kUndecided)
          << j;
    }
  }
  // h1 >> 11 = 2^53 − 1: u1 rounds to exactly 1.0, z = ±0 and
  // fl(0 + σ·z) = +0, so the a = 0 bit is clear whatever u2 says.
  const std::uint64_t top = 2 * two52 - 1;
  EXPECT_EQ(util::counter_normal_u1(h1_at(top)), 1.0);
  for (const std::uint64_t j : {std::uint64_t{0}, quarter / 2, 5 * quarter / 2,
                                7 * quarter / 2}) {
    EXPECT_FALSE(drawn_bit(0.0, 3.7, h1_at(top), h2_at(j)));
    EXPECT_NE(decide_noisy_sign(0.0, 3.7, h1_at(top), h2_at(j)),
              NoiseDecision::kSet)
        << j;
  }
}

TEST(ImcDecide, HelperOnRandomDrawsDecidesAlmostAllAndSoundly) {
  // a spread over ±12σ, σ over four decades: every decided bit is the
  // drawn bit, components the 8.66σ margin settles are always decided,
  // and the undecided share stays small.
  util::Xoshiro256 rng(17);
  std::size_t undecided = 0;
  const std::size_t n = 200000;
  for (std::size_t i = 0; i < n; ++i) {
    const double sigma = std::pow(10.0, rng.uniform(-1.0, 3.0));
    const double a = std::round(rng.uniform(-12.0, 12.0) * sigma);
    const std::uint64_t h1 = rng.next();
    const std::uint64_t h2 = rng.next();
    const NoiseDecision got = decide_noisy_sign(a, sigma, h1, h2);
    if (got == NoiseDecision::kUndecided) {
      ++undecided;
      EXPECT_LE(std::fabs(a), sigma * util::kCounterNormalBound)
          << "margin-decided component left open";
      continue;
    }
    ASSERT_EQ(got == NoiseDecision::kSet, drawn_bit(a, sigma, h1, h2))
        << "a=" << a << " sigma=" << sigma << " h1=" << h1 << " h2=" << h2;
  }
  EXPECT_LT(undecided, n / 100);
}

/// The helper applied to every component: the kernel's reference.
struct HelperResult {
  util::BitVec bits;
  std::vector<std::uint32_t> undecided;
};

HelperResult helper_decide(const std::vector<std::int32_t>& acc, double sigma,
                           std::uint64_t key) {
  HelperResult r{util::BitVec(acc.size()), {}};
  for (std::size_t d = 0; d < acc.size(); ++d) {
    const util::CounterNormalHashes h = util::counter_normal_hashes(key, d);
    const NoiseDecision got = decide_noisy_sign(acc[d], sigma, h.h1, h.h2);
    if (got == NoiseDecision::kUndecided) {
      r.undecided.push_back(static_cast<std::uint32_t>(d));
    } else if (got == NoiseDecision::kSet) {
      r.bits.set(d, true);
    }
  }
  return r;
}

TEST(ImcDecide, EveryTierDecidesExactlyLikeTheHelper) {
  const double inf = std::numeric_limits<double>::infinity();
  util::Xoshiro256 rng(23);
  for (const std::size_t dim : {64U, 1100U, 2048U, 8192U}) {
    for (const double sigma : {0.0, 1e-310, 0.3, 3.7, 55.0, 1e200, inf}) {
      std::vector<std::int32_t> acc(dim);
      const double spread = std::isfinite(sigma) && sigma > 1e-3
                                ? std::min(sigma, 1e6) * 9.0
                                : 40.0;
      for (std::int32_t& a : acc) {
        // A few exact zeros, the rest uniform over ±spread.
        a = rng.below(10) == 0 ? 0
                               : static_cast<std::int32_t>(std::round(
                                     rng.uniform(-spread, spread)));
      }
      const std::uint64_t key = rng.next();
      const HelperResult want = helper_decide(acc, sigma, key);
      for (const Tier tier : runnable_tiers()) {
        util::BitVec got(dim);
        std::vector<std::uint32_t> open(dim);
        const std::size_t n = decide_noisy_signs_tier(tier, acc, sigma, key,
                                                      got.words(), open);
        open.resize(n);
        const std::string what = "tier " +
                                 std::string(hd::kernels::tier_name(tier)) +
                                 " dim " + std::to_string(dim) + " sigma " +
                                 std::to_string(sigma);
        EXPECT_EQ(open, want.undecided) << what;
        EXPECT_EQ(got, want.bits) << what;
        // Drawing the open components completes the full-draw result.
        for (const std::uint32_t d : open) {
          const util::CounterNormalHashes h =
              util::counter_normal_hashes(key, d);
          got.set(d, drawn_bit(acc[d], sigma, h.h1, h.h2));
        }
        for (std::size_t d = 0; d < dim; ++d) {
          const util::CounterNormalHashes h =
              util::counter_normal_hashes(key, d);
          ASSERT_EQ(got.get(d), drawn_bit(acc[d], sigma, h.h1, h.h2))
              << what << " d " << d;
        }
      }
    }
  }
}

TEST(ImcDecide, NoiseDrawsCountTheHelpersUndecidedComponents) {
  const TierGuard guard;
  const hd::Encoder enc(encoder_config(hd::IdPrecision::k3Bit));
  const ImcEncoderConfig dev = device();
  ImcEncoder imc(enc, dev);
  for (const Tier tier : runnable_tiers()) {
    hd::kernels::set_active_tier(tier);
    std::uint64_t expected = 0;
    const std::uint64_t before = imc.noise_draws();
    for (const std::size_t peaks : {5U, 50U, 150U}) {
      const Spectrum s = random_spectrum(peaks, peaks, enc.config().bins);
      const std::vector<std::size_t> counts{peaks};
      imc.precalibrate(counts);
      std::vector<std::int32_t> acc(enc.config().dim, 0);
      enc.accumulate(s.bins, s.weights, acc);
      for (const std::uint64_t stream : {1ULL, 2ULL}) {
        expected += helper_decide(acc, imc.accumulator_sigma(peaks),
                                  noise_key(dev, stream))
                        .undecided.size();
        (void)imc.encode_keyed(s.bins, s.weights, stream);
      }
    }
    EXPECT_EQ(imc.noise_draws() - before, expected)
        << hd::kernels::tier_name(tier);
    EXPECT_GT(expected, 0U);
  }
}

TEST(ImcDecide, ConcurrentEncodeKeyedMatchesSerial) {
  const hd::Encoder enc(encoder_config(hd::IdPrecision::k3Bit));
  ImcEncoder imc(enc, device());
  std::vector<Spectrum> spectra;
  for (std::uint64_t i = 0; i < 32; ++i) {
    spectra.push_back(random_spectrum(500 + i, 20 + i * 4, enc.config().bins));
    const std::vector<std::size_t> counts{spectra.back().bins.size()};
    imc.precalibrate(counts);
  }
  std::vector<util::BitVec> serial;
  for (std::size_t i = 0; i < spectra.size(); ++i) {
    serial.push_back(imc.encode_keyed(spectra[i].bins, spectra[i].weights, i));
  }
  const std::uint64_t serial_draws = imc.noise_draws();

  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t k = 0; k < spectra.size(); ++k) {
        const std::size_t i =
            (k + static_cast<std::size_t>(t) * 7) % spectra.size();
        if (imc.encode_keyed(spectra[i].bins, spectra[i].weights, i) !=
            serial[i]) {
          ++mismatches[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(imc.noise_draws(), serial_draws * (kThreads + 1));
}

TEST(ImcDecide, EnginePublishesEncoderDrawsAndTimesWindowLookupApart) {
  // rram-statistical encodes queries (and the library) in memory. With
  // metrics on, the engine times the encoder and the precursor-window
  // lookup into separate histograms, one observation each per block, and
  // publishes the encoder's draws beside encoder.id_rows.
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 60;
  wcfg.query_count = 40;
  wcfg.seed = 99;
  const ms::Workload wl = ms::generate_workload(wcfg);

  core::PipelineConfig pcfg;
  pcfg.encoder.dim = 1024;
  pcfg.encoder.bins = pcfg.preprocess.bin_count();
  pcfg.encoder.chunks = 64;
  pcfg.backend_name = "rram-statistical";
  core::Pipeline pipeline(pcfg);
  pipeline.set_library(wl.references);

  obs::MetricsRegistry metrics;
  core::QueryEngineConfig ecfg;
  ecfg.metrics = &metrics;
  ecfg.block_size = 8;
  core::QueryEngine engine(pipeline, ecfg);
  engine.submit_batch(wl.queries);
  (void)engine.drain();

  const obs::Snapshot snap = metrics.snapshot();
  const std::uint64_t blocks = snap.counter("engine.blocks");
  EXPECT_GT(blocks, 1U);
  const obs::HistogramSnapshot* encode =
      snap.histogram("engine.stage.encode_seconds");
  const obs::HistogramSnapshot* window =
      snap.histogram("engine.stage.window_seconds");
  ASSERT_NE(encode, nullptr);
  ASSERT_NE(window, nullptr);
  EXPECT_EQ(encode->count, blocks);
  EXPECT_EQ(window->count, blocks);

  // A process total over the library build and the queries: some draws,
  // and well under 1% of the components encoded.
  const double draws = snap.gauge("encoder.noise_draws");
  EXPECT_GT(draws, 0.0);
  const double components =
      static_cast<double>(2 * wl.references.size() + wl.queries.size()) *
      pcfg.encoder.dim;
  EXPECT_LT(draws, 0.01 * components);
}

TEST(ImcDecide, TierNeverExceedsTheActiveClamp) {
  EXPECT_EQ(decide_tier(Tier::kScalar), Tier::kScalar);
  EXPECT_LE(decide_tier(Tier::kAvx2), hd::kernels::best_supported());
  EXPECT_LE(decide_tier(Tier::kAvx512), hd::kernels::best_supported());
  if (hd::kernels::best_supported() >= Tier::kAvx2) {
    EXPECT_EQ(decide_tier(Tier::kAvx2), Tier::kAvx2);
    EXPECT_GE(decide_tier(Tier::kAvx512), Tier::kAvx2);
  }
}

}  // namespace
}  // namespace oms::accel
