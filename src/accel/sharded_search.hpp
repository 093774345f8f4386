// Sharded multi-chip search. The paper's motivation is data volume: public
// MS repositories grow exponentially while single chips do not. This
// executor splits a reference library into contiguous shards sized to one
// chip's capacity (via the mapping planner) and merges per-shard top-k
// results — the scale-out layer a deployment of the accelerator needs.
//
// One engine, many ranges: ShardedSearch holds ONE ImcSearchEngine over the
// whole library — one hd::RefView, one noise calibration — and shard s is
// the global index range [s·R, (s+1)·R) of it (R = references_per_shard(),
// the last shard possibly ragged). Each shard has its own MappingPlan for
// capacity and energy accounting. A shard search is the engine's sweep
// restricted to the shard's range, with global reference indices, so the
// keyed noise is exactly the monolithic engine's and phase_sigma() /
// gain() are the engine's own calibration.
//
// Shards inherit the library's precursor-mass order, so a query's mass
// window intersects only a contiguous run of shards and the executor
// skips the rest.
//
// Parallelism: the batched path (search_many) runs every intersecting
// shard's sub-block as an independent task — one chip searching its
// partition — on a util::ThreadPool (the nested-safe parallel_tasks
// primitive, so blocks already running on the pool can still fan their
// shards out). Per-shard results land in per-shard buffers and are merged
// deterministically in shard order afterward; keyed noise guarantees the
// merge input never depends on scheduling, so the parallel path is
// bit-identical to the sequential one.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "accel/imc_search.hpp"
#include "accel/mapper.hpp"

namespace oms::util {
class ThreadPool;
}  // namespace oms::util

namespace oms::accel {

struct ShardedSearchConfig {
  rram::ChipConfig chip{};          ///< Capacity unit per shard.
  ImcSearchConfig engine{};         ///< Configuration of the one engine.
  /// Cap on references per shard; 0 derives it from chip capacity
  /// (columns × column blocks that fit the chip's arrays).
  std::size_t max_refs_per_shard = 0;
  /// Run a block's intersecting shards concurrently (search_many). The
  /// sequential path is kept selectable for benchmarking and regression
  /// testing; results are bit-identical either way.
  bool parallel_shards = true;
  /// Pool the shard tasks run on; null → util::ThreadPool::global().
  util::ThreadPool* pool = nullptr;
};

class ShardedSearch {
 public:
  /// Builds shards over `references` (not owned; must outlive this).
  /// References must be ordered by precursor mass if window-based
  /// candidate ranges are used (the SpectralLibrary guarantees this).
  ShardedSearch(std::span<const util::BitVec> references,
                const ShardedSearchConfig& cfg);

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return plans_.size();
  }
  [[nodiscard]] std::size_t reference_count() const noexcept {
    return engine_.reference_count();
  }
  [[nodiscard]] std::size_t references_per_shard() const noexcept {
    return refs_per_shard_;
  }
  /// Activation phases and keyed noise draws across every shard search
  /// (the one engine's counters).
  [[nodiscard]] std::uint64_t phases_executed() const noexcept {
    return engine_.phases_executed();
  }
  [[nodiscard]] std::uint64_t noise_draws() const noexcept {
    return engine_.noise_draws();
  }
  /// The engine's calibrated noise parameters; every shard searches with
  /// them.
  [[nodiscard]] double phase_sigma() const noexcept {
    return engine_.phase_sigma();
  }
  [[nodiscard]] double gain() const noexcept { return engine_.gain(); }
  /// The engine's piecewise reference view; shards are index ranges of it.
  [[nodiscard]] const hd::RefView& ref_view() const noexcept {
    return engine_.ref_view();
  }
  /// The mapping plan of shard `i` (for capacity/energy accounting).
  [[nodiscard]] const MappingPlan& plan(std::size_t i) const {
    return plans_.at(i);
  }

  /// Top-k search over global reference indices [first, last), merged
  /// across every intersecting shard. Thread-safe for statistical/ideal
  /// fidelity (keyed noise).
  [[nodiscard]] std::vector<hd::SearchHit> top_k(const util::BitVec& query,
                                                 std::size_t first,
                                                 std::size_t last,
                                                 std::size_t k,
                                                 std::uint64_t stream) const;

  /// Batched search: ships the whole query block to each intersecting
  /// shard once (one shard entry per block instead of one per query), runs
  /// the intersecting shards concurrently when configured (see
  /// ShardedSearchConfig::parallel_shards), and merges the per-shard top-k
  /// lists per query with a bounded k-way merge. result[i] is
  /// bit-identical to top_k(*queries[i].hv, ...) — the noise is keyed on
  /// global reference indices, so neither blocking, shard order, nor
  /// scheduling changes any score.
  [[nodiscard]] std::vector<std::vector<hd::SearchHit>> search_many(
      std::span<const hd::BatchQuery> queries, std::size_t k) const;

  /// Shard search entries so far: one per (query, intersecting shard) on
  /// the per-query path, one per (block, intersecting shard) on the
  /// batched path — the scale-out cost the batched path amortizes. Exact
  /// (atomically counted per shard task) regardless of how many threads
  /// execute the shards, so the measured perf-model path is deterministic.
  [[nodiscard]] std::uint64_t shard_entries() const noexcept {
    return shard_entries_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] util::ThreadPool& task_pool() const;

  ImcSearchEngine engine_;
  std::size_t refs_per_shard_ = 0;
  bool parallel_shards_ = true;
  util::ThreadPool* pool_ = nullptr;
  std::vector<MappingPlan> plans_;  ///< One per shard.
  mutable std::atomic<std::uint64_t> shard_entries_{0};
};

}  // namespace oms::accel
