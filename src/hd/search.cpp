#include "hd/search.hpp"

#include <algorithm>
#include <utility>

namespace oms::hd {

namespace {

SearchHit make_hit(std::size_t index, std::size_t ham,
                   std::size_t dim) noexcept {
  const auto dot =
      static_cast<std::int64_t>(dim) - 2 * static_cast<std::int64_t>(ham);
  return SearchHit{index, dot,
                   1.0 - static_cast<double>(ham) / static_cast<double>(dim)};
}

}  // namespace

std::vector<SearchHit> top_k_search(const util::BitVec& query,
                                    std::span<const util::BitVec> references,
                                    std::size_t first, std::size_t last,
                                    std::size_t k) {
  std::vector<SearchHit> hits;
  if (k == 0 || first >= last) return hits;
  last = std::min(last, references.size());

  const std::size_t dim = query.size();
  const std::uint64_t* qwords = query.words().data();
  const std::size_t nwords = query.word_count();

  // Keep a small sorted buffer of the k best; k is tiny (≤ 16) in practice.
  for (std::size_t i = first; i < last; ++i) {
    const std::size_t ham = kernels::xor_popcount(
        qwords, references[i].words().data(), nwords);
    insert_top_k(hits, make_hit(i, ham, dim), k);
  }
  return hits;
}

std::vector<SearchHit> top_k_search(const util::BitVec& query,
                                    const RefView& references,
                                    std::size_t first, std::size_t last,
                                    std::size_t k) {
  // A block of one through the shared sweep core.
  const BatchQuery q{&query, first, last, 0};
  return std::move(
      top_k_search_batch(std::span<const BatchQuery>(&q, 1), references, k)
          .front());
}

std::vector<BatchQuery> clip_queries(std::span<const BatchQuery> queries,
                                     std::size_t n_refs) {
  std::vector<BatchQuery> clipped(queries.begin(), queries.end());
  for (BatchQuery& q : clipped) {
    q.last = std::min(q.last, n_refs);
    q.first = std::min(q.first, q.last);
  }
  return clipped;
}

std::vector<std::vector<SearchHit>> top_k_search_batch(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k) {
  std::vector<std::size_t> dims(queries.size());
  for (std::size_t slot = 0; slot < queries.size(); ++slot) {
    dims[slot] = queries[slot].hv->size();
  }
  return sweep_top_k(queries, references, k,
                     [dims = dims.data()](std::size_t slot, std::size_t index,
                                          std::size_t ham) {
                       return make_hit(index, ham, dims[slot]);
                     });
}

SearchHit best_match(const util::BitVec& query,
                     std::span<const util::BitVec> references,
                     std::size_t first, std::size_t last) {
  const auto hits = top_k_search(query, references, first, last, 1);
  if (hits.empty()) {
    return SearchHit{};  // invalid: no candidate in range
  }
  return hits.front();
}

}  // namespace oms::hd
