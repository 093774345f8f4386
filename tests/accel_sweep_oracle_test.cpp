// Oracle suite for the shared sweep core on the simulated-hardware
// backends. "rram-statistical" and "sharded" score through hd::sweep_top_k
// (tier-dispatched, cache-blocked, per extent) with a per-pair noise
// epilogue; these tests pin that every hit — index, dot and similarity —
// is bit-identical to an in-test per-pair oracle that spells the keyed
// noise model out directly (util::bipolar_dot + util::counter_normal +
// hd::insert_top_k), under every popcount tier this CPU supports. The
// layouts are chosen to stress the sweep's decomposition: a fragmented
// many-extent view with mixed strides, a dimension that is not a multiple
// of 64, duplicated rows (equal exact scores across extents), and shard
// boundaries that fall inside extents. The concurrent case (one shared
// engine, many threads calling search_many) also runs under the `tsan`
// ctest label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "accel/imc_search.hpp"
#include "accel/sharded_search.hpp"
#include "core/search_backend.hpp"
#include "hd/kernels.hpp"
#include "hd/search.hpp"
#include "util/rng.hpp"

namespace oms::accel {
namespace {

// 17 full words + a 12-bit tail; ceil(1100 / 64) = 18 phases, so √phases
// is irrational and the noise product order is observable.
constexpr std::size_t kDim = 1100;
constexpr std::size_t kRefs = 2400;
/// Rows per shard: boundaries fall inside extents, including the long one.
constexpr std::size_t kRefsPerShard = 370;
constexpr std::uint64_t kSeed = 2024;

/// Reference rows living in three word blocks with different strides. The
/// first 1200 rows are one long extent (longer than a sweep chunk, so the
/// cache blocking splits it); after that short runs alternate between the
/// blocks, so the coalesced view has many extents. Every 7th row repeats
/// an earlier one (equal exact scores in different extents and shards).
class FragmentedLibrary {
 public:
  FragmentedLibrary() {
    const std::size_t wc = (kDim + 63) / 64;
    const std::size_t strides[3] = {wc, wc + 1, wc + 3};
    for (std::size_t b = 0; b < 3; ++b) {
      blocks_[b].assign(strides[b] * kRefs, 0);
    }
    std::size_t used[3] = {0, 0, 0};
    for (std::size_t i = 0; i < kRefs; ++i) {
      const std::size_t b = i < 1200 ? 0 : (i / 11 + i / 29) % 3;
      util::BitVec row(kDim);
      row.randomize(i % 7 == 6 ? 100 + i / 2 : 100 + i);
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

/// One contiguous word block (the mmap'd LibraryIndex layout).
class ContiguousLibrary {
 public:
  ContiguousLibrary() {
    const std::size_t wc = (kDim + 63) / 64;
    block_.assign(wc * kRefs, 0);
    for (std::size_t i = 0; i < kRefs; ++i) {
      util::BitVec row(kDim);
      row.randomize(500 + i);
      const auto words = std::as_const(row).words();
      std::copy(words.begin(), words.end(), block_.data() + i * wc);
      refs_.push_back(util::BitVec::view(block_.data() + i * wc, kDim));
    }
  }

  [[nodiscard]] std::span<const util::BitVec> refs() const { return refs_; }

 private:
  std::vector<std::uint64_t> block_;
  std::vector<util::BitVec> refs_;
};

/// Queries near planted references plus random ones, with windows that are
/// full, narrow, empty, out of range, or straddling extent and shard
/// boundaries.
struct QuerySet {
  std::vector<util::BitVec> hvs;
  std::vector<hd::BatchQuery> batch;

  explicit QuerySet(std::span<const util::BitVec> refs) {
    const std::size_t n = 40;
    hvs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      util::BitVec q(kDim);
      if (i % 2 == 0) {
        const auto src = refs[(i * 37) % refs.size()].words();
        std::copy(src.begin(), src.end(), q.words().begin());
        for (std::size_t f = 0; f < 120; ++f) q.flip((f * 13 + i) % kDim);
      } else {
        q.randomize(9000 + i);
      }
      hvs.push_back(std::move(q));
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t first = (i * 23) % refs.size();
      std::size_t last = std::min(refs.size(), first + 5 + (i * 173) % 1500);
      if (i % 5 == 0) first = 0, last = refs.size();
      if (i % 9 == 4) last = first;                  // empty window
      if (i % 11 == 3) last = refs.size() + 40;      // clipped window
      batch.push_back(hd::BatchQuery{&hvs[i], first, last, 7000 + i * 3});
    }
  }
};

/// The per-pair keyed noise model, written out independently of the
/// engine: exact bipolar dot, z keyed on (seed, stream, global index),
/// gain·exact + z·σ·√phases, llround for the dot, (score/D + 1)/2 for the
/// similarity. `params(i)` returns the (gain, σ) that apply to global
/// index i.
template <typename Params>
std::vector<hd::SearchHit> oracle_top_k(std::span<const util::BitVec> refs,
                                        const hd::BatchQuery& q,
                                        std::size_t k, bool noisy,
                                        std::size_t activated_pairs,
                                        const Params& params) {
  std::vector<hd::SearchHit> hits;
  const std::size_t last = std::min(q.last, refs.size());
  const double dim = static_cast<double>(q.hv->size());
  const std::size_t phases =
      (q.hv->size() + activated_pairs - 1) / activated_pairs;
  for (std::size_t i = q.first; i < last; ++i) {
    const double exact =
        static_cast<double>(util::bipolar_dot(*q.hv, refs[i]));
    double d = exact;
    if (noisy) {
      const auto [gain, sigma] = params(i);
      const double z =
          util::counter_normal(util::hash_combine(kSeed, q.stream), i);
      d = gain * exact + z * sigma * std::sqrt(static_cast<double>(phases));
    }
    hd::insert_top_k(
        hits,
        hd::SearchHit{i, static_cast<std::int64_t>(std::llround(d)),
                      (d / dim + 1.0) / 2.0},
        k);
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

/// Every tier this CPU can run, clamped (duplicates collapse).
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

ImcSearchConfig engine_config(Fidelity f) {
  ImcSearchConfig cfg;
  cfg.fidelity = f;
  cfg.calibration_samples = 512;
  cfg.seed = kSeed;
  return cfg;
}

core::BackendOptions backend_options() {
  core::BackendOptions opts;
  opts.calibration_samples = 512;
  opts.seed = kSeed;
  opts.query_block = 16;
  opts.max_refs_per_shard = kRefsPerShard;
  return opts;
}

TEST(SweepOracle, FragmentedLayoutIsManyExtents) {
  const FragmentedLibrary lib;
  const ImcSearchEngine engine(lib.refs(), engine_config(Fidelity::kIdeal));
  EXPECT_GT(engine.ref_view().extent_count(), 5u);
  EXPECT_FALSE(engine.ref_view().contiguous());
  EXPECT_EQ(engine.ref_view().count(), kRefs);
}

TEST(SweepOracle, StatisticalEngineMatchesPerPairOracleOnEveryTier) {
  const TierGuard guard;
  const FragmentedLibrary lib;
  const QuerySet qs(lib.refs());
  const ImcSearchEngine engine(lib.refs(),
                               engine_config(Fidelity::kStatistical));
  ASSERT_GT(engine.phase_sigma(), 0.0);
  const auto params = [&](std::size_t) {
    return std::pair{engine.gain(), engine.phase_sigma()};
  };
  for (const std::size_t k : {1u, 4u, 9u}) {
    std::vector<std::vector<hd::SearchHit>> want;
    for (const auto& q : qs.batch) {
      want.push_back(oracle_top_k(lib.refs(), q, k, true,
                                  engine.config().activated_pairs, params));
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
}

TEST(SweepOracle, IdealFidelityKeepsDuplicateTieBreakOnEveryTier) {
  const TierGuard guard;
  const FragmentedLibrary lib;
  const QuerySet qs(lib.refs());
  const ImcSearchEngine engine(lib.refs(), engine_config(Fidelity::kIdeal));
  const auto params = [](std::size_t) { return std::pair{1.0, 0.0}; };
  std::vector<std::vector<hd::SearchHit>> want;
  for (const auto& q : qs.batch) {
    want.push_back(oracle_top_k(lib.refs(), q, 6, false,
                                engine.config().activated_pairs, params));
  }
  for (const auto tier : runnable_tiers()) {
    hd::kernels::set_active_tier(tier);
    expect_identical(engine.search_many(qs.batch, 6), want,
                     std::string(hd::kernels::tier_name(tier)));
  }
  EXPECT_EQ(engine.phases_executed(), 0u);
}

TEST(SweepOracle, ShardedSearchMatchesOracleAcrossShardBoundaries) {
  const TierGuard guard;
  const FragmentedLibrary lib;
  const QuerySet qs(lib.refs());
  ShardedSearchConfig cfg;
  cfg.engine = engine_config(Fidelity::kStatistical);
  cfg.max_refs_per_shard = kRefsPerShard;
  const ShardedSearch sharded(lib.refs(), cfg);
  ASSERT_GT(sharded.shard_count(), 3u);
  const auto params = [&](std::size_t) {
    return std::pair{sharded.gain(), sharded.phase_sigma()};
  };
  std::vector<std::vector<hd::SearchHit>> want;
  for (const auto& q : qs.batch) {
    want.push_back(oracle_top_k(lib.refs(), q, 5, true,
                                cfg.engine.activated_pairs, params));
  }
  for (const auto tier : runnable_tiers()) {
    hd::kernels::set_active_tier(tier);
    const std::string what(hd::kernels::tier_name(tier));
    expect_identical(sharded.search_many(qs.batch, 5), want,
                     what + " search_many");
    std::vector<std::vector<hd::SearchHit>> per_query;
    for (const auto& q : qs.batch) {
      per_query.push_back(sharded.top_k(*q.hv, q.first, q.last, 5, q.stream));
    }
    expect_identical(per_query, want, what + " top_k");
  }
}

TEST(SweepOracle, BackendsMatchOracleAndReportTheSweptLayout) {
  const TierGuard guard;
  const FragmentedLibrary fragmented;
  const ContiguousLibrary contiguous;
  const ImcSearchEngine probe(fragmented.refs(),
                              engine_config(Fidelity::kStatistical));
  for (const char* name : {"rram-statistical", "sharded"}) {
    for (const bool is_fragmented : {true, false}) {
      const auto refs =
          is_fragmented ? fragmented.refs() : contiguous.refs();
      const QuerySet qs(refs);
      const auto params = [&](std::size_t) {
        return std::pair{probe.gain(), probe.phase_sigma()};
      };
      std::vector<std::vector<hd::SearchHit>> want;
      for (const auto& q : qs.batch) {
        want.push_back(oracle_top_k(refs, q, 4, true,
                                    probe.config().activated_pairs, params));
      }
      for (const auto tier : runnable_tiers()) {
        hd::kernels::set_active_tier(tier);
        const std::string what = std::string(name) + " " +
                                 (is_fragmented ? "fragmented " : "contiguous ") +
                                 std::string(hd::kernels::tier_name(tier));
        auto backend = core::make_backend(name, refs, backend_options());
        expect_identical(backend->search_batch(qs.batch, 4), want, what);

        // Both backends sweep one view of the whole library ("sharded"
        // through its one engine, shards being index ranges of it), so
        // they report that view's layout, not a per-shard sum.
        const core::BackendStats s = backend->stats();
        EXPECT_EQ(s.kernel, hd::kernels::tier_name(tier)) << what;
        EXPECT_EQ(s.extent_count, hd::RefView::from_span(refs).extent_count())
            << what;
        if (is_fragmented) {
          EXPECT_FALSE(s.contiguous_refs) << what;
          EXPECT_GT(s.extent_count, s.shards) << what;
        } else {
          EXPECT_TRUE(s.contiguous_refs) << what;
          EXPECT_EQ(s.extent_count, 1u) << what;
        }
      }
    }
  }
}

TEST(SweepOracle, CircuitBackendReportsNoDigitalKernel) {
  core::BackendOptions opts;
  opts.array.rows = 128;
  opts.array.cols = 16;
  opts.activated_pairs = 32;
  opts.calibration_samples = 256;
  std::vector<util::BitVec> refs(6);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    refs[i] = util::BitVec(128);
    refs[i].randomize(40 + i);
  }
  const auto backend = core::make_backend("rram-circuit", refs, opts);
  const core::BackendStats s = backend->stats();
  EXPECT_TRUE(s.kernel.empty());
  EXPECT_EQ(s.extent_count, 0u);
}

TEST(SweepOracle, ConcurrentSearchManyOnOneSharedEngine) {
  const FragmentedLibrary lib;
  const QuerySet qs(lib.refs());
  const ImcSearchEngine engine(lib.refs(),
                               engine_config(Fidelity::kStatistical));
  const std::span<const hd::BatchQuery> batch(qs.batch);
  const std::size_t block = 8;
  const std::size_t n_blocks = (batch.size() + block - 1) / block;

  std::vector<std::vector<std::vector<hd::SearchHit>>> sequential(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    sequential[b] = engine.search_many(
        batch.subspan(b * block, std::min(block, batch.size() - b * block)),
        3);
  }
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
          got[t][r * n_blocks + b] = engine.search_many(
              batch.subspan(b * block,
                            std::min(block, batch.size() - b * block)),
              3);
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
  // Phase accounting is exact under contention.
  EXPECT_EQ(engine.phases_executed(), phases_once * (1 + kThreads * kRounds));
}

}  // namespace
}  // namespace oms::accel
