#include "accel/sharded_search.hpp"

#include <gtest/gtest.h>

#include "hd/search.hpp"
#include "util/thread_pool.hpp"

namespace oms::accel {
namespace {

std::vector<util::BitVec> random_refs(std::size_t n, std::size_t dim,
                                      std::uint64_t seed) {
  std::vector<util::BitVec> refs(n);
  for (std::size_t i = 0; i < n; ++i) {
    refs[i] = util::BitVec(dim);
    refs[i].randomize(seed + i);
  }
  return refs;
}

ShardedSearchConfig small_config(Fidelity f, std::size_t refs_per_shard) {
  ShardedSearchConfig cfg;
  cfg.engine.fidelity = f;
  cfg.engine.calibration_samples = 512;
  cfg.max_refs_per_shard = refs_per_shard;
  return cfg;
}

TEST(ShardedSearch, SplitsIntoExpectedShards) {
  const auto refs = random_refs(1000, 512, 1);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kIdeal, 300));
  EXPECT_EQ(sharded.shard_count(), 4U);  // 300+300+300+100
  EXPECT_EQ(sharded.references_per_shard(), 300U);
  EXPECT_EQ(sharded.plan(0).references, 300U);
  EXPECT_EQ(sharded.plan(3).references, 100U);
}

TEST(ShardedSearch, DerivesShardSizeFromChipCapacity) {
  const auto refs = random_refs(100, 512, 2);
  ShardedSearchConfig cfg = small_config(Fidelity::kIdeal, 0);
  // 512-dim refs need 4 vertical tiles of the default 128-pair arrays;
  // 48 arrays / 4 tiles = 12 column blocks × 256 cols = 3072 refs/shard.
  const ShardedSearch sharded(refs, cfg);
  EXPECT_EQ(sharded.references_per_shard(), 3072U);
  EXPECT_EQ(sharded.shard_count(), 1U);
}

TEST(ShardedSearch, IdealFidelityMatchesGlobalSearch) {
  const auto refs = random_refs(700, 1024, 3);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kIdeal, 128));
  util::BitVec query(1024);
  query.randomize(900);

  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 700}, {100, 500}, {127, 129} /* shard boundary */, {256, 384}};
  for (const auto& [first, last] : ranges) {
    const auto global = hd::top_k_search(query, refs, first, last, 5);
    const auto shard = sharded.top_k(query, first, last, 5, 42);
    ASSERT_EQ(shard.size(), global.size()) << first << ".." << last;
    for (std::size_t i = 0; i < global.size(); ++i) {
      EXPECT_EQ(shard[i].reference_index, global[i].reference_index);
      EXPECT_EQ(shard[i].dot, global[i].dot);
    }
  }
}

TEST(ShardedSearch, FindsPlantedMatchUnderStatisticalNoise) {
  auto refs = random_refs(600, 2048, 4);
  util::BitVec query = refs[431];
  for (int i = 0; i < 80; ++i) query.flip(i * 23);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kStatistical, 200));
  const auto hits = sharded.top_k(query, 0, refs.size(), 1, 7);
  ASSERT_EQ(hits.size(), 1U);
  EXPECT_EQ(hits[0].reference_index, 431U);
}

TEST(ShardedSearch, EmptyRangeAndZeroK) {
  const auto refs = random_refs(100, 256, 5);
  const ShardedSearch sharded(refs, small_config(Fidelity::kIdeal, 50));
  EXPECT_TRUE(sharded.top_k(refs[0], 10, 10, 5, 1).empty());
  EXPECT_TRUE(sharded.top_k(refs[0], 0, 100, 0, 1).empty());
}

TEST(ShardedSearch, RejectsEmptyReferences) {
  const std::vector<util::BitVec> none;
  EXPECT_THROW(ShardedSearch(none, small_config(Fidelity::kIdeal, 10)),
               std::invalid_argument);
}

TEST(ShardedSearch, RaggedShardsShareOneEngineCalibration) {
  // 500 references at 200/shard: 200 + 200 + 100 — the last shard is
  // deliberately ragged. Shards are index ranges of ONE engine, so the
  // executor reports that engine's own calibration: bit-equal (not just
  // close) to a monolithic rram-statistical engine's, before any search
  // (no reference-count weighting over per-shard values) and after a
  // search confined to the ragged tail (no phase weighting either).
  const auto refs = random_refs(500, 1024, 11);
  const ShardedSearchConfig cfg = small_config(Fidelity::kStatistical, 200);
  const ShardedSearch sharded(refs, cfg);
  ASSERT_EQ(sharded.shard_count(), 3U);
  EXPECT_EQ(sharded.plan(2).references, 100U);
  // One view over the whole library, not one per shard.
  EXPECT_EQ(sharded.ref_view().count(), refs.size());

  const ImcSearchEngine mono(refs, cfg.engine);
  ASSERT_GT(mono.phase_sigma(), 0.0);
  EXPECT_EQ(sharded.phase_sigma(), mono.phase_sigma());
  EXPECT_EQ(sharded.gain(), mono.gain());

  util::BitVec query(1024);
  query.randomize(77);
  const auto hits = sharded.top_k(query, 430, 500, 3, 1);
  EXPECT_EQ(hits, mono.top_k_keyed(query, 430, 500, 3, 1));
  EXPECT_EQ(sharded.phases_executed(), mono.phases_executed());
  EXPECT_EQ(sharded.noise_draws(), mono.noise_draws());
  EXPECT_EQ(sharded.phase_sigma(), mono.phase_sigma());
  EXPECT_EQ(sharded.gain(), mono.gain());
}

TEST(ShardedSearch, DeterministicAcrossCallsAndThreads) {
  auto refs = random_refs(500, 1024, 6);
  const ShardedSearch sharded(refs,
                              small_config(Fidelity::kStatistical, 150));
  std::vector<util::BitVec> queries(40);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = util::BitVec(1024);
    queries[i].randomize(2000 + i);
  }

  // Serial reference result.
  std::vector<std::vector<hd::SearchHit>> serial(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serial[i] = sharded.top_k(queries[i], 0, refs.size(), 3, i);
  }
  // Parallel, arbitrary order.
  std::vector<std::vector<hd::SearchHit>> parallel(queries.size());
  util::ThreadPool pool(4);
  pool.parallel_for(0, queries.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      parallel[i] = sharded.top_k(queries[i], 0, refs.size(), 3, i);
    }
  });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(parallel[i].size(), serial[i].size()) << i;
    for (std::size_t j = 0; j < serial[i].size(); ++j) {
      EXPECT_EQ(parallel[i][j], serial[i][j]) << i << "," << j;
    }
  }
}

}  // namespace
}  // namespace oms::accel
