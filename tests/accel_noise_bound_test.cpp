// The exact |z| bound behind the noise skip. util::counter_normal never
// leaves [-kCounterNormalBound, kCounterNormalBound], so the statistical
// RRAM engine hands hd::sweep_top_k a ceiling on each pair's noisy dot and
// the sweep skips the draw for pairs that cannot enter a full top-k; the
// IMC query encoder decides components far from zero without a draw. Both
// skips must change nothing. These tests pin the bound itself, then every
// hit (index, dot, similarity) of search_many / top_k_keyed against an
// in-test oracle that draws noise for every pair — on every runnable
// kernel tier, over a fragmented many-extent view, with shard boundaries
// inside extents and equal dots at the top-k floor — and every
// encode_keyed bit against an oracle that draws for every dimension. The
// noise_draws counter must show the skip (fewer draws than pairs on a
// wide window, all of them when k covers the window) while
// phases_executed stays unchanged. The concurrent case also runs under
// the `tsan` ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/error_model.hpp"
#include "accel/imc_encoder.hpp"
#include "accel/imc_search.hpp"
#include "accel/sharded_search.hpp"
#include "core/search_backend.hpp"
#include "hd/encoder.hpp"
#include "hd/kernels.hpp"
#include "hd/search.hpp"
#include "util/rng.hpp"

namespace oms::accel {
namespace {

// Not a multiple of 64, and ceil(1100 / 64) = 18 phases, so √phases is
// irrational and the noise product order is observable.
constexpr std::size_t kDim = 1100;
constexpr std::size_t kRefs = 2400;
/// Rows per shard: boundaries fall inside extents, including the long one.
constexpr std::size_t kRefsPerShard = 370;
constexpr std::uint64_t kSeed = 2024;

/// References in three word blocks with different strides: one long
/// extent (longer than a sweep chunk) and then short alternating runs, so
/// the coalesced view has many extents. Every 5th row repeats an earlier
/// one, so equal exact dots recur across extents and shards.
class FragmentedLibrary {
 public:
  FragmentedLibrary() {
    const std::size_t wc = (kDim + 63) / 64;
    const std::size_t strides[3] = {wc, wc + 2, wc + 5};
    for (std::size_t b = 0; b < 3; ++b) {
      blocks_[b].assign(strides[b] * kRefs, 0);
    }
    std::size_t used[3] = {0, 0, 0};
    for (std::size_t i = 0; i < kRefs; ++i) {
      const std::size_t b = i < 1100 ? 0 : (i / 13 + i / 31) % 3;
      util::BitVec row(kDim);
      row.randomize(i % 5 == 4 ? 300 + i / 3 : 300 + i);
      std::uint64_t* dst = blocks_[b].data() + used[b] * strides[b];
      const auto words = std::as_const(row).words();
      std::copy(words.begin(), words.end(), dst);
      refs_.push_back(util::BitVec::view(dst, kDim));
      ++used[b];
    }
  }

  [[nodiscard]] std::span<const util::BitVec> refs() const { return refs_; }

 private:
  std::vector<std::uint64_t> blocks_[3];
  std::vector<util::BitVec> refs_;
};

/// Queries planted near references plus random ones, over full, wide,
/// narrow, single-row, empty and clipped windows.
struct QuerySet {
  std::vector<util::BitVec> hvs;
  std::vector<hd::BatchQuery> batch;

  explicit QuerySet(std::span<const util::BitVec> refs) {
    const std::size_t n = 36;
    hvs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      util::BitVec q(kDim);
      if (i % 3 == 0) {
        const auto src = refs[(i * 53) % refs.size()].words();
        std::copy(src.begin(), src.end(), q.words().begin());
        for (std::size_t f = 0; f < 200; ++f) q.flip((f * 17 + i) % kDim);
      } else {
        q.randomize(41000 + i);
      }
      hvs.push_back(std::move(q));
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t first = (i * 131) % refs.size();
      std::size_t last = std::min(refs.size(), first + 1 + (i * 389) % 1800);
      if (i % 4 == 0) first = 0, last = refs.size();
      if (i % 10 == 7) last = first;              // empty window
      if (i % 10 == 8) last = first + 1;          // one candidate
      if (i % 9 == 5) last = refs.size() + 25;    // clipped window
      batch.push_back(hd::BatchQuery{&hvs[i], first, last, 880 + i * 7});
    }
  }

  /// Σ in-range window sizes: the pairs a sweep visits.
  [[nodiscard]] std::size_t pairs(std::size_t n_refs) const {
    std::size_t total = 0;
    for (const auto& q : batch) {
      const std::size_t last = std::min(q.last, n_refs);
      if (q.first < last) total += last - q.first;
    }
    return total;
  }
};

/// Full-draw oracle: every pair's noise is drawn (exact bipolar dot, z
/// keyed on (seed, stream, global index), gain·exact + z·σ·√phases) and
/// goes through insert_top_k. `params(i)` gives the (gain, σ) for global
/// index i. `floor_ties` counts pairs that arrived with a full top-k and a
/// dot equal to its current k-th dot — the ties a skip must also reject.
template <typename Params>
std::vector<hd::SearchHit> full_draw_top_k(std::span<const util::BitVec> refs,
                                           const hd::BatchQuery& q,
                                           std::size_t k,
                                           std::size_t activated_pairs,
                                           const Params& params,
                                           std::size_t* floor_ties = nullptr) {
  std::vector<hd::SearchHit> hits;
  const std::size_t last = std::min(q.last, refs.size());
  const double dim = static_cast<double>(q.hv->size());
  const double sqrt_phases = std::sqrt(static_cast<double>(
      (q.hv->size() + activated_pairs - 1) / activated_pairs));
  for (std::size_t i = q.first; i < last; ++i) {
    const double exact =
        static_cast<double>(util::bipolar_dot(*q.hv, refs[i]));
    const auto [gain, sigma] = params(i);
    const double z =
        util::counter_normal(util::hash_combine(kSeed, q.stream), i);
    const double d = gain * exact + z * sigma * sqrt_phases;
    const hd::SearchHit hit{i, static_cast<std::int64_t>(std::llround(d)),
                            (d / dim + 1.0) / 2.0};
    if (floor_ties != nullptr && hits.size() == k &&
        hit.dot == hits.back().dot) {
      ++*floor_ties;
    }
    hd::insert_top_k(hits, hit, k);
  }
  return hits;
}

void expect_identical(const std::vector<std::vector<hd::SearchHit>>& got,
                      const std::vector<std::vector<hd::SearchHit>>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << what << " q" << i;
    for (std::size_t j = 0; j < got[i].size(); ++j) {
      EXPECT_EQ(got[i][j], want[i][j]) << what << " q" << i << " hit " << j;
    }
  }
}

/// Every tier this CPU can run.
std::vector<hd::kernels::Tier> runnable_tiers() {
  using hd::kernels::Tier;
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
  hd::kernels::Tier saved_;
};

ImcSearchConfig engine_config() {
  ImcSearchConfig cfg;
  cfg.fidelity = Fidelity::kStatistical;
  cfg.calibration_samples = 512;
  cfg.seed = kSeed;
  return cfg;
}

TEST(NoiseBound, ConstantBoundsEveryDraw) {
  // u1 ≥ 2^-54, so the Box-Muller radius is at most sqrt(-2·ln 2^-54).
  EXPECT_LT(std::sqrt(-2.0 * std::log(0x1p-54)), util::kCounterNormalBound);
  double max_abs = 0.0;
  for (std::uint64_t i = 0; i < 1000000; ++i) {
    const double z = util::counter_normal(util::hash_combine(7, i % 97), i);
    ASSERT_LE(std::abs(z), util::kCounterNormalBound) << i;
    max_abs = std::max(max_abs, std::abs(z));
  }
  // A million standard normals reach past 4σ; the bound is far above.
  EXPECT_GT(max_abs, 4.0);
}

TEST(NoiseBound, EngineMatchesFullDrawOracleOnEveryTier) {
  const TierGuard guard;
  const FragmentedLibrary lib;
  const QuerySet qs(lib.refs());
  const ImcSearchEngine engine(lib.refs(), engine_config());
  ASSERT_GT(engine.phase_sigma(), 0.0);
  ASSERT_GT(engine.ref_view().extent_count(), 5u);
  const auto params = [&](std::size_t) {
    return std::pair{engine.gain(), engine.phase_sigma()};
  };
  const std::size_t ap = engine.config().activated_pairs;
  std::size_t floor_ties = 0;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                              kRefs}) {
    std::vector<std::vector<hd::SearchHit>> want;
    for (const auto& q : qs.batch) {
      want.push_back(full_draw_top_k(lib.refs(), q, k, ap, params,
                                     &floor_ties));
    }
    for (const auto tier : runnable_tiers()) {
      hd::kernels::set_active_tier(tier);
      const std::string what =
          std::string(hd::kernels::tier_name(tier)) + " k" + std::to_string(k);
      expect_identical(engine.search_many(qs.batch, k), want,
                       what + " search_many");
      std::vector<std::vector<hd::SearchHit>> keyed;
      for (const auto& q : qs.batch) {
        keyed.push_back(engine.top_k_keyed(*q.hv, q.first, q.last, k,
                                           q.stream));
      }
      expect_identical(keyed, want, what + " top_k_keyed");
    }
  }
  // Equal dots at a full top-k's floor did occur, and the skip rejected
  // them exactly as insert_top_k does.
  EXPECT_GT(floor_ties, 0u);

  // k equal to each query's own window size: nothing can be skipped
  // before the last candidate, and the top-k is the whole window.
  for (const auto& q : qs.batch) {
    const std::size_t last = std::min(q.last, kRefs);
    if (q.first >= last) continue;
    const std::size_t k = last - q.first;
    const auto got = engine.top_k_keyed(*q.hv, q.first, q.last, k, q.stream);
    EXPECT_EQ(got, full_draw_top_k(lib.refs(), q, k, ap, params))
        << "window " << k;
  }
}

TEST(NoiseBound, ShardedMatchesFullDrawOracleAcrossShardBoundaries) {
  const TierGuard guard;
  const FragmentedLibrary lib;
  const QuerySet qs(lib.refs());
  ShardedSearchConfig cfg;
  cfg.engine = engine_config();
  cfg.max_refs_per_shard = kRefsPerShard;
  const ShardedSearch sharded(lib.refs(), cfg);
  ASSERT_GT(sharded.shard_count(), 3u);
  const auto params = [&](std::size_t) {
    return std::pair{sharded.gain(), sharded.phase_sigma()};
  };
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                              kRefs}) {
    std::vector<std::vector<hd::SearchHit>> want;
    for (const auto& q : qs.batch) {
      want.push_back(full_draw_top_k(lib.refs(), q, k,
                                     cfg.engine.activated_pairs, params));
    }
    for (const auto tier : runnable_tiers()) {
      hd::kernels::set_active_tier(tier);
      const std::string what =
          std::string(hd::kernels::tier_name(tier)) + " k" + std::to_string(k);
      expect_identical(sharded.search_many(qs.batch, k), want,
                       what + " search_many");
      std::vector<std::vector<hd::SearchHit>> per_query;
      for (const auto& q : qs.batch) {
        per_query.push_back(
            sharded.top_k(*q.hv, q.first, q.last, k, q.stream));
      }
      expect_identical(per_query, want, what + " top_k");
    }
  }
}

TEST(NoiseBound, DrawsFallBelowPairsWhilePhasesStayExact) {
  const FragmentedLibrary lib;
  const QuerySet qs(lib.refs());
  const std::size_t pairs = qs.pairs(kRefs);

  // k covering every window: each pair is scored, so each draws.
  const ImcSearchEngine all(lib.refs(), engine_config());
  (void)all.search_many(qs.batch, kRefs);
  EXPECT_EQ(all.noise_draws(), pairs);
  const std::uint64_t phases_all = all.phases_executed();

  // k = 1 over the same windows: far fewer draws, identical phases.
  const ImcSearchEngine best(lib.refs(), engine_config());
  (void)best.search_many(qs.batch, 1);
  EXPECT_LT(best.noise_draws(), pairs / 2);
  EXPECT_GT(best.noise_draws(), 0u);
  EXPECT_EQ(best.phases_executed(), phases_all);

  // The count depends only on each query's own candidate order: one
  // block, per-query calls and uneven sub-blocks all draw the same.
  const ImcSearchEngine single(lib.refs(), engine_config());
  for (const auto& q : qs.batch) {
    (void)single.top_k_keyed(*q.hv, q.first, q.last, 1, q.stream);
  }
  EXPECT_EQ(single.noise_draws(), best.noise_draws());
  const ImcSearchEngine blocked(lib.refs(), engine_config());
  const std::span<const hd::BatchQuery> batch(qs.batch);
  for (std::size_t b = 0; b < batch.size(); b += 7) {
    (void)blocked.search_many(
        batch.subspan(b, std::min<std::size_t>(7, batch.size() - b)), 1);
  }
  EXPECT_EQ(blocked.noise_draws(), best.noise_draws());

  // Ideal fidelity draws nothing.
  ImcSearchConfig ideal = engine_config();
  ideal.fidelity = Fidelity::kIdeal;
  const ImcSearchEngine exact(lib.refs(), ideal);
  (void)exact.search_many(qs.batch, 1);
  EXPECT_EQ(exact.noise_draws(), 0u);
}

TEST(NoiseBound, BackendStatsCarryNoiseDraws) {
  const FragmentedLibrary lib;
  const QuerySet qs(lib.refs());
  core::BackendOptions opts;
  opts.calibration_samples = 512;
  opts.seed = kSeed;
  opts.query_block = 16;
  opts.max_refs_per_shard = kRefsPerShard;
  const std::size_t pairs = qs.pairs(kRefs);
  for (const char* name : {"rram-statistical", "sharded"}) {
    auto backend = core::make_backend(name, lib.refs(), opts);
    (void)backend->search_batch(qs.batch, kRefs);
    const core::BackendStats first = backend->stats();
    EXPECT_EQ(first.noise_draws, pairs) << name;
    (void)backend->search_batch(qs.batch, 1);
    const core::BackendStats second = backend->stats();
    const core::BackendStats window = second.since(first);
    EXPECT_GT(window.noise_draws, 0u) << name;
    EXPECT_LT(window.noise_draws, pairs / 2) << name;
    EXPECT_EQ(window.phases_executed, first.phases_executed) << name;
    core::BackendStats sum = first;
    sum += window;
    EXPECT_EQ(sum.noise_draws, second.noise_draws) << name;
    core::BackendStats merged;
    merged.merge(second);
    EXPECT_EQ(merged.noise_draws, second.noise_draws) << name;
  }
  auto ideal = core::make_backend("ideal-hd", lib.refs(), opts);
  (void)ideal->search_batch(qs.batch, 1);
  EXPECT_EQ(ideal->stats().noise_draws, 0u);
}

/// Bucket of the encoder's sigma calibration grid (multiples of 8, at
/// least 8) and the mean square ID magnitude of the odd lattice.
std::size_t sigma_bucket(std::size_t n) {
  return std::max<std::size_t>(8, (n + 7) / 8 * 8);
}
double mean_square_magnitude(hd::IdPrecision p) {
  const int mags = hd::magnitude_count(p);
  double acc = 0.0;
  for (int k = 0; k < mags; ++k) acc += (2.0 * k + 1.0) * (2.0 * k + 1.0);
  return acc / mags;
}

TEST(NoiseBound, KeyedEncodeMatchesPerDimensionFullDrawOracle) {
  hd::EncoderConfig ecfg;
  ecfg.dim = 2048;
  ecfg.bins = 3000;
  ecfg.levels = 16;
  ecfg.chunks = 64;
  ecfg.seed = 77;
  // Default device, a noisier one, and a near-noiseless one: the skip
  // margin scales with each bucket's sigma.
  std::vector<ImcEncoderConfig> devices(3);
  devices[1].array.sense_sigma = 0.03;
  devices[1].array.wire_sigma = 0.06;
  devices[2].array.sense_sigma = 1e-6;
  devices[2].array.wire_sigma = 1e-6;
  for (ImcEncoderConfig& d : devices) d.calibration_samples = 512;

  for (const auto precision : {hd::IdPrecision::k1Bit,
                               hd::IdPrecision::k3Bit}) {
    ecfg.id_precision = precision;
    hd::Encoder enc(ecfg);
    for (std::size_t dev = 0; dev < devices.size(); ++dev) {
      ImcEncoder imc(enc, devices[dev]);
      std::size_t decided = 0;
      for (const std::size_t peaks : {1u, 3u, 8u, 9u, 17u, 32u, 49u, 64u}) {
        util::Xoshiro256 rng(peaks * 31 + dev);
        std::vector<std::uint32_t> bins;
        std::vector<float> weights;
        std::uint32_t bin = 0;
        for (std::size_t i = 0; i < peaks; ++i) {
          bin += 1 + static_cast<std::uint32_t>(rng.below(40));
          bins.push_back(bin);
          weights.push_back(static_cast<float>(rng.uniform(0.05, 1.0)));
        }
        enc.id_bank().ensure(bins);
        const std::vector<std::size_t> counts{peaks};
        imc.precalibrate(counts);

        // The oracle: the calibrated sigma in accumulator units, then one
        // draw per dimension, binarized at > 0.
        std::vector<std::int32_t> acc(ecfg.dim, 0);
        enc.accumulate(bins, weights, acc);
        const MvmErrorStats stats = calibrate_mvm_error(
            devices[dev].array, sigma_bucket(peaks),
            static_cast<int>(precision), devices[dev].calibration_samples,
            devices[dev].seed);
        const double sigma_acc =
            stats.sigma_normalized *
            std::sqrt(static_cast<double>(peaks) *
                      mean_square_magnitude(precision));
        for (const std::uint64_t stream : {5ull, 6ull, 123456789ull}) {
          const std::uint64_t key =
              util::hash_combine(devices[dev].seed, stream, 0xE2C0ULL);
          util::BitVec want(ecfg.dim);
          for (std::size_t d = 0; d < ecfg.dim; ++d) {
            const double a = static_cast<double>(acc[d]);
            if (a + sigma_acc * util::counter_normal(key, d) > 0.0) {
              want.set(d, true);
            }
            if (std::abs(a) > sigma_acc * util::kCounterNormalBound) {
              ++decided;
            }
          }
          EXPECT_EQ(imc.encode_keyed(bins, weights, stream), want)
              << "device " << dev << " peaks " << peaks << " stream "
              << stream;
        }
      }
      // Some components were decided without a draw on every device.
      EXPECT_GT(decided, 0u) << "device " << dev;
    }
  }
}

TEST(NoiseBound, ConcurrentSearchManyOnOneSharedEngine) {
  const FragmentedLibrary lib;
  const QuerySet qs(lib.refs());
  const ImcSearchEngine engine(lib.refs(), engine_config());
  const std::span<const hd::BatchQuery> batch(qs.batch);
  const std::size_t block = 6;
  const std::size_t n_blocks = (batch.size() + block - 1) / block;
  const auto sub = [&](std::size_t b) {
    return batch.subspan(b * block, std::min(block, batch.size() - b * block));
  };

  std::vector<std::vector<std::vector<hd::SearchHit>>> sequential(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    sequential[b] = engine.search_many(sub(b), 2);
  }
  const std::uint64_t draws_once = engine.noise_draws();
  const std::uint64_t phases_once = engine.phases_executed();

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<std::vector<std::vector<hd::SearchHit>>>> got(
      kThreads, std::vector<std::vector<std::vector<hd::SearchHit>>>(
                    n_blocks * kRounds));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t r = 0; r < kRounds; ++r) {
        for (std::size_t j = 0; j < n_blocks; ++j) {
          const std::size_t b = (j + t) % n_blocks;  // staggered order
          got[t][r * n_blocks + b] = engine.search_many(sub(b), 2);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t r = 0; r < kRounds; ++r) {
      for (std::size_t b = 0; b < n_blocks; ++b) {
        expect_identical(got[t][r * n_blocks + b], sequential[b],
                         "thread " + std::to_string(t));
      }
    }
  }
  // Both counters are exact under contention.
  EXPECT_EQ(engine.noise_draws(), draws_once * (1 + kThreads * kRounds));
  EXPECT_EQ(engine.phases_executed(), phases_once * (1 + kThreads * kRounds));
}

}  // namespace
}  // namespace oms::accel
