// Parallel intra-block shard execution: ShardedSearch::search_many runs
// each intersecting shard's sub-block as an independent task on a
// util::ThreadPool and merges per-shard buffers deterministically in
// shard order. These suites pin the contracts the parallel path must
// honor: bit-identical hits vs the sequential shard walk, vs the
// monolithic engines, and vs every block size / pool size; tie-breaks
// surviving the bounded k-way merge; and exact (scheduling-independent)
// amortization counters, since accel::PerfModel::from_measured consumes
// them. Registered under the `tsan` ctest label so the ThreadSanitizer CI
// job covers the new concurrency.
#include <gtest/gtest.h>

#include <vector>

#include "accel/sharded_search.hpp"
#include "core/search_backend.hpp"
#include "hd/search.hpp"
#include "util/thread_pool.hpp"

namespace oms::accel {
namespace {

std::vector<util::BitVec> random_hvs(std::size_t n, std::size_t dim,
                                     std::uint64_t seed) {
  std::vector<util::BitVec> hvs(n);
  for (std::size_t i = 0; i < n; ++i) {
    hvs[i] = util::BitVec(dim);
    hvs[i].randomize(seed + i);
  }
  return hvs;
}

/// Varied overlapping windows (some full-range, some narrow, some hugging
/// a shard boundary) so each block genuinely intersects several shards.
std::vector<hd::BatchQuery> make_batch(
    const std::vector<util::BitVec>& queries, std::size_t n_refs) {
  std::vector<hd::BatchQuery> batch(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::size_t first = (i % 5) * (n_refs / 10);
    const std::size_t last =
        i % 3 == 0 ? n_refs : std::min(n_refs, first + n_refs / 2 + i);
    batch[i] = hd::BatchQuery{&queries[i], first, last, i};
  }
  return batch;
}

/// Feeds `batch` to search_many in size-`block` slices, concatenating the
/// per-query results — how the backend's run_blocked drives the executor.
std::vector<std::vector<hd::SearchHit>> run_in_blocks(
    const ShardedSearch& sharded, std::span<const hd::BatchQuery> batch,
    std::size_t k, std::size_t block) {
  std::vector<std::vector<hd::SearchHit>> out;
  out.reserve(batch.size());
  for (std::size_t begin = 0; begin < batch.size(); begin += block) {
    const std::size_t count = std::min(block, batch.size() - begin);
    auto hits = sharded.search_many(batch.subspan(begin, count), k);
    for (auto& h : hits) out.push_back(std::move(h));
  }
  return out;
}

void expect_identical(
    const std::vector<std::vector<hd::SearchHit>>& a,
    const std::vector<std::vector<hd::SearchHit>>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << what << " q" << i;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      EXPECT_EQ(a[i][j], b[i][j]) << what << " q" << i << " hit " << j;
    }
  }
}

ShardedSearchConfig base_config(Fidelity f, std::size_t refs_per_shard) {
  ShardedSearchConfig cfg;
  cfg.engine.fidelity = f;
  cfg.engine.calibration_samples = 512;
  cfg.max_refs_per_shard = refs_per_shard;
  return cfg;
}

TEST(ShardedParallel, BitIdenticalToSequentialAcrossBlockAndPoolSizes) {
  const auto refs = random_hvs(600, 1024, 1);
  const auto query_hvs = random_hvs(48, 1024, 9000);
  const auto batch = make_batch(query_hvs, refs.size());
  const std::size_t k = 5;

  // 90 refs/shard: 7 shards with a ragged 60-reference tail.
  ShardedSearchConfig seq_cfg =
      base_config(Fidelity::kStatistical, 90);
  seq_cfg.parallel_shards = false;
  const ShardedSearch sequential(refs, seq_cfg);
  ASSERT_EQ(sequential.shard_count(), 7U);

  for (const std::size_t block : {1UL, 7UL, 64UL}) {
    const auto expected = run_in_blocks(sequential, batch, k, block);
    for (const std::size_t threads : {1UL, 2UL, 3UL, 4UL}) {
      util::ThreadPool pool(threads);
      ShardedSearchConfig par_cfg = seq_cfg;
      par_cfg.parallel_shards = true;
      par_cfg.pool = &pool;
      const ShardedSearch parallel(refs, par_cfg);
      const auto got = run_in_blocks(parallel, batch, k, block);
      expect_identical(expected, got, "parallel vs sequential");
    }
  }
}

TEST(ShardedParallel, MatchesMonolithicEngineUnderStatisticalNoise) {
  const auto refs = random_hvs(500, 1024, 2);
  const auto query_hvs = random_hvs(30, 1024, 5555);
  const auto batch = make_batch(query_hvs, refs.size());
  const std::size_t k = 4;

  ImcSearchConfig mono_cfg;
  mono_cfg.fidelity = Fidelity::kStatistical;
  mono_cfg.calibration_samples = 512;
  const ImcSearchEngine mono(refs, mono_cfg);

  util::ThreadPool pool(3);
  ShardedSearchConfig cfg = base_config(Fidelity::kStatistical, 120);
  cfg.pool = &pool;
  const ShardedSearch sharded(refs, cfg);

  const auto got = run_in_blocks(sharded, batch, k, 7);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto expected = mono.top_k_keyed(*batch[i].hv, batch[i].first,
                                           batch[i].last, k, batch[i].stream);
    ASSERT_EQ(got[i].size(), expected.size()) << i;
    for (std::size_t j = 0; j < expected.size(); ++j) {
      EXPECT_EQ(got[i][j], expected[j]) << i << "," << j;
    }
  }
}

TEST(ShardedParallel, BackendPathsAgreeAcrossAllApplicableBackends) {
  // Backend-level equivalence: the "sharded" backend with parallel shards
  // must reproduce its sequential twin and the monolithic backend of the
  // same fidelity ("ideal-hd" for ideal shards, "rram-statistical" for
  // statistical ones), for every block size. "rram-circuit" has no
  // sharded counterpart (circuit fidelity is rejected at construction).
  const auto refs = random_hvs(400, 512, 3);
  const auto query_hvs = random_hvs(40, 512, 7777);
  std::vector<core::Query> batch(query_hvs.size());
  for (std::size_t i = 0; i < query_hvs.size(); ++i) {
    batch[i] = core::Query{&query_hvs[i], i % 9, refs.size() - (i % 13), i};
  }
  const std::size_t k = 4;

  for (const Fidelity fidelity :
       {Fidelity::kIdeal, Fidelity::kStatistical}) {
    core::BackendOptions opts;
    opts.calibration_samples = 512;
    opts.seed = 99;
    opts.sharded_fidelity = fidelity;
    opts.max_refs_per_shard = 70;  // 6 shards, ragged tail
    const char* mono_name =
        fidelity == Fidelity::kIdeal ? "ideal-hd" : "rram-statistical";
    auto mono = core::make_backend(mono_name, refs, opts);

    for (const std::size_t block : {1UL, 7UL, 64UL}) {
      opts.query_block = block;
      opts.parallel_shards = false;
      auto sequential = core::make_backend("sharded", refs, opts);
      opts.parallel_shards = true;
      auto parallel = core::make_backend("sharded", refs, opts);

      const auto expected = mono->search_batch(batch, k);
      expect_identical(expected, sequential->search_batch(batch, k),
                       "sequential-sharded vs monolithic");
      expect_identical(expected, parallel->search_batch(batch, k),
                       "parallel-sharded vs monolithic");
    }
  }
}

TEST(ShardedParallel, TieBreaksSurviveTheBoundedMerge) {
  // Duplicated references straddling shard boundaries force exact score
  // ties that the k-way merge must emit in ascending global index order.
  auto refs = random_hvs(300, 512, 4);
  for (const std::size_t dup : {23UL, 74UL, 75UL, 149UL, 150UL, 299UL}) {
    refs[dup] = refs[5];
  }
  util::ThreadPool pool(4);
  ShardedSearchConfig cfg = base_config(Fidelity::kIdeal, 75);
  cfg.pool = &pool;
  const ShardedSearch sharded(refs, cfg);

  const hd::BatchQuery q{&refs[5], 0, refs.size(), 0};
  const auto out = sharded.search_many(std::span(&q, 1), 7);
  ASSERT_EQ(out.size(), 1U);
  ASSERT_EQ(out[0].size(), 7U);
  const std::size_t expected[] = {5, 23, 74, 75, 149, 150, 299};
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(out[0][i].reference_index, expected[i]) << i;
    EXPECT_EQ(out[0][i].dot, 512) << i;
  }
}

TEST(ShardedParallel, CountersExactAcrossPoolSizes) {
  // The amortization counters feed PerfModel::from_measured, so they must
  // be exact — identical whether one thread or four executed the shards.
  const auto refs = random_hvs(450, 1024, 5);
  const auto query_hvs = random_hvs(33, 1024, 31337);
  const auto batch = make_batch(query_hvs, refs.size());

  std::uint64_t expected_entries = 0;
  std::uint64_t expected_phases = 0;
  std::uint64_t expected_draws = 0;
  for (const std::size_t threads : {1UL, 2UL, 4UL}) {
    util::ThreadPool pool(threads);
    ShardedSearchConfig cfg = base_config(Fidelity::kStatistical, 110);
    cfg.pool = &pool;
    const ShardedSearch sharded(refs, cfg);
    (void)run_in_blocks(sharded, batch, 3, 11);

    if (threads == 1) {
      expected_entries = sharded.shard_entries();
      expected_phases = sharded.phases_executed();
      expected_draws = sharded.noise_draws();
      EXPECT_GT(expected_entries, 0U);
      EXPECT_GT(expected_phases, 0U);
      EXPECT_GT(expected_draws, 0U);
    } else {
      EXPECT_EQ(sharded.shard_entries(), expected_entries) << threads;
      EXPECT_EQ(sharded.phases_executed(), expected_phases) << threads;
      EXPECT_EQ(sharded.noise_draws(), expected_draws) << threads;
    }
  }
}

TEST(ShardedParallel, NestedInsideOuterPoolBlocksDoesNotDeadlock) {
  // The backend runs blocks on the global pool and each block fans its
  // shards out on the same pool — the nested case parallel_tasks exists
  // for. A 2-thread pool with 4 concurrent blocks must still finish.
  const auto refs = random_hvs(300, 512, 6);
  const auto query_hvs = random_hvs(32, 512, 424242);
  const auto batch = make_batch(query_hvs, refs.size());

  util::ThreadPool pool(2);
  ShardedSearchConfig cfg = base_config(Fidelity::kStatistical, 60);
  cfg.pool = &pool;
  const ShardedSearch sharded(refs, cfg);

  std::vector<std::vector<std::vector<hd::SearchHit>>> per_block(4);
  pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      per_block[b] = sharded.search_many(
          std::span(batch).subspan(b * 8, 8), 3);
    }
  });

  ShardedSearchConfig seq_cfg = cfg;
  seq_cfg.parallel_shards = false;
  seq_cfg.pool = nullptr;
  const ShardedSearch sequential(refs, seq_cfg);
  for (std::size_t b = 0; b < 4; ++b) {
    const auto expected =
        sequential.search_many(std::span(batch).subspan(b * 8, 8), 3);
    expect_identical(expected, per_block[b], "nested block");
  }
}

}  // namespace
}  // namespace oms::accel
