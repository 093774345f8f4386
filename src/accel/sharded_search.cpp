#include "accel/sharded_search.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace oms::accel {

namespace {

/// Bounded k-way merge of per-shard top-k lists into `out`. Every input
/// list is already sorted by (dot desc, reference_index asc) and the lists
/// arrive in shard order, i.e. ascending disjoint global index ranges —
/// so the strictly-better comparison below keeps the "equal scores order
/// by lower reference index" contract (the earlier list wins ties).
/// O(S·k) with S intersecting shards, replacing the old
/// sort-the-concatenation O(S·k·log(S·k)).
void merge_top_k(std::span<const std::vector<hd::SearchHit>* const> lists,
                 std::size_t k, std::vector<hd::SearchHit>& out) {
  out.clear();
  if (lists.empty() || k == 0) return;
  if (lists.size() == 1) {
    const auto& only = *lists.front();
    out.assign(only.begin(), only.begin() +
                                 static_cast<std::ptrdiff_t>(
                                     std::min(k, only.size())));
    return;
  }
  std::vector<std::size_t> pos(lists.size(), 0);
  out.reserve(k);
  while (out.size() < k) {
    std::size_t best = lists.size();
    for (std::size_t l = 0; l < lists.size(); ++l) {
      if (pos[l] >= lists[l]->size()) continue;
      if (best == lists.size()) {
        best = l;
        continue;
      }
      const hd::SearchHit& a = (*lists[l])[pos[l]];
      const hd::SearchHit& b = (*lists[best])[pos[best]];
      if (a.dot > b.dot ||
          (a.dot == b.dot && a.reference_index < b.reference_index)) {
        best = l;
      }
    }
    if (best == lists.size()) break;  // every list exhausted
    out.push_back((*lists[best])[pos[best]++]);
  }
}

}  // namespace

ShardedSearch::ShardedSearch(std::span<const util::BitVec> references,
                             const ShardedSearchConfig& cfg)
    : engine_(references, cfg.engine),
      parallel_shards_(cfg.parallel_shards),
      pool_(cfg.pool) {
  if (references.empty()) {
    throw std::invalid_argument("ShardedSearch: empty reference set");
  }
  const std::uint32_t dim =
      static_cast<std::uint32_t>(references.front().size());

  refs_per_shard_ = cfg.max_refs_per_shard;
  if (refs_per_shard_ == 0) {
    // Columns the chip can host: arrays / vertical tiles per reference,
    // times columns per array.
    const std::size_t pair_rows = cfg.chip.array.pair_rows();
    const std::size_t vtiles = (dim + pair_rows - 1) / pair_rows;
    const std::size_t blocks =
        std::max<std::size_t>(1, cfg.chip.array_count / vtiles);
    refs_per_shard_ = blocks * cfg.chip.array.cols;
  }

  for (std::size_t start = 0; start < references.size();
       start += refs_per_shard_) {
    const std::size_t count =
        std::min(refs_per_shard_, references.size() - start);
    plans_.push_back(plan_search_mapping(count, dim, cfg.chip,
                                         cfg.engine.activated_pairs));
  }
}

util::ThreadPool& ShardedSearch::task_pool() const {
  return pool_ != nullptr ? *pool_ : util::ThreadPool::global();
}

std::vector<hd::SearchHit> ShardedSearch::top_k(const util::BitVec& query,
                                                std::size_t first,
                                                std::size_t last,
                                                std::size_t k,
                                                std::uint64_t stream) const {
  last = std::min(last, reference_count());
  std::vector<hd::SearchHit> merged;
  if (k == 0 || first >= last) return merged;

  const std::size_t shard_first = first / refs_per_shard_;
  const std::size_t shard_last = (last - 1) / refs_per_shard_;
  std::vector<std::vector<hd::SearchHit>> shard_hits;
  shard_hits.reserve(shard_last - shard_first + 1);
  for (std::size_t s = shard_first; s <= shard_last; ++s) {
    const std::size_t base = s * refs_per_shard_;
    const std::size_t lo = std::max(first, base);
    const std::size_t hi = std::min(last, base + refs_per_shard_);
    shard_entries_.fetch_add(1, std::memory_order_relaxed);
    auto hits = engine_.top_k_keyed(query, lo, hi, k, stream);
    if (!hits.empty()) shard_hits.push_back(std::move(hits));
  }
  std::vector<const std::vector<hd::SearchHit>*> lists;
  lists.reserve(shard_hits.size());
  for (const auto& hits : shard_hits) lists.push_back(&hits);
  merge_top_k(lists, k, merged);
  return merged;
}

std::vector<std::vector<hd::SearchHit>> ShardedSearch::search_many(
    std::span<const hd::BatchQuery> queries, std::size_t k) const {
  std::vector<std::vector<hd::SearchHit>> out(queries.size());
  if (k == 0 || queries.empty()) return out;

  // Split the block once per intersecting shard, up front: every block
  // query whose window intersects the shard is shipped together, with its
  // window clipped to the shard's global range, so the shard (one chip in
  // the deployment picture) is entered once per block.
  struct ShardTask {
    std::vector<hd::BatchQuery> sub;                ///< Clipped windows.
    std::vector<std::size_t> slots;                 ///< Block slot of sub[j].
    std::vector<std::vector<hd::SearchHit>> hits;   ///< Per sub[j].
  };
  std::vector<ShardTask> tasks;
  const std::size_t n_refs = reference_count();
  for (std::size_t s = 0; s < shard_count(); ++s) {
    const std::size_t base = s * refs_per_shard_;
    const std::size_t end = std::min(n_refs, base + refs_per_shard_);
    ShardTask task;
    for (std::size_t slot = 0; slot < queries.size(); ++slot) {
      const hd::BatchQuery& q = queries[slot];
      const std::size_t lo = std::max(q.first, base);
      const std::size_t hi = std::min(q.last, end);
      if (lo >= hi) continue;
      task.sub.push_back(hd::BatchQuery{q.hv, lo, hi, q.stream});
      task.slots.push_back(slot);
    }
    if (!task.sub.empty()) tasks.push_back(std::move(task));
  }

  // Each intersecting shard's sub-block is one independent task; results
  // land in per-shard buffers so the merge below reads the same inputs
  // whether the tasks ran sequentially or concurrently (keyed noise:
  // scores never depend on scheduling). parallel_tasks lets the caller
  // help, so blocks already running on the pool can still fan out.
  const auto run_task = [&](std::size_t t) {
    ShardTask& task = tasks[t];
    shard_entries_.fetch_add(1, std::memory_order_relaxed);
    task.hits = engine_.search_many(task.sub, k);
  };
  if (parallel_shards_ && tasks.size() > 1) {
    task_pool().parallel_tasks(tasks.size(), run_task);
  } else {
    for (std::size_t t = 0; t < tasks.size(); ++t) run_task(t);
  }

  // Deterministic merge in shard order: gather each slot's per-shard
  // lists (ascending shard id == ascending global index range) and run
  // the bounded k-way merge.
  std::vector<std::vector<const std::vector<hd::SearchHit>*>> per_slot(
      queries.size());
  for (const ShardTask& task : tasks) {
    for (std::size_t j = 0; j < task.slots.size(); ++j) {
      if (!task.hits[j].empty()) {
        per_slot[task.slots[j]].push_back(&task.hits[j]);
      }
    }
  }
  for (std::size_t slot = 0; slot < queries.size(); ++slot) {
    merge_top_k(per_slot[slot], k, out[slot]);
  }
  return out;
}

}  // namespace oms::accel
