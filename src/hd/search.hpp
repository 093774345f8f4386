// Exact Hamming-similarity search over a set of encoded reference
// hypervectors (paper §3.3). Candidates are restricted to an index range —
// the precursor-mass window computed by the spectral library — which is
// what turns the same kernel into either a standard search (narrow window)
// or an open modification search (wide window).
//
// The production search runs a query *block* through sweep_top_k, the one
// sweep core. This header carries its vocabulary: BatchQuery (one request
// in a block), insert_top_k (the top-k maintenance every kernel uses, so
// tie-breaking is identical everywhere), for_each_query_segment (the
// reference-major sweep that lets one pass over resident references serve a
// whole block) and sweep_top_k itself. The core produces exact Hamming
// distances per (query slot, global reference index) over an hd::RefView
// and each substrate supplies only a score epilogue: identity for exact HD
// (top_k_search_batch, and top_k_search over a view as a block of one),
// gain plus keyed MLC noise for the statistical RRAM engine
// (accel/imc_search.hpp), which the sharded executor reaches by sweeping
// index ranges of one engine. An epilogue with an expensive score may add a
// ceiling (an upper bound on the pair's dot), and the core then skips pairs
// that provably cannot enter the slot's top-k — exactly, so no result
// changes.
//
// Kernel/dispatch seam: the word-level XOR-popcount work underneath lives
// in hd/kernels.hpp — runtime-dispatched scalar / AVX2 / AVX-512-VPOPCNTDQ
// tiers, all bit-identical, plus the piecewise RefView (an ordered list of
// contiguous extents with global indices). sweep_top_k runs over a RefView,
// cache-blocked per extent, so a mapped monolithic index::LibraryIndex (one
// extent), a multi-segment index::SegmentedLibrary (one extent per run of
// same-segment rows) and individually heap-allocated BitVecs (one extent
// per row) all go through the same kernel.
//
// Reference loop: top_k_search over a span and best_match score one pair
// at a time through the dispatched pair kernel. No production path calls
// them; they are the plain oracle the sweep core's tests compare against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

#include "hd/kernels.hpp"
#include "util/bitvec.hpp"

namespace oms::hd {

/// One search hit: index into the reference set plus the similarity score.
/// A default-constructed hit is invalid (no match); check valid() before
/// using reference_index.
struct SearchHit {
  /// Sentinel reference_index of a no-match hit.
  static constexpr std::size_t kNoMatch = static_cast<std::size_t>(-1);

  std::size_t reference_index = kNoMatch;
  std::int64_t dot = 0;        ///< Bipolar dot product in [-D, D].
  double similarity = 0.0;     ///< Hamming similarity in [0, 1].

  /// True when this hit refers to an actual reference (best_match over an
  /// empty candidate range yields an invalid hit).
  [[nodiscard]] constexpr bool valid() const noexcept {
    return reference_index != kNoMatch;
  }

  [[nodiscard]] bool operator==(const SearchHit&) const = default;
};

/// Reference loop: scores `query` against references[first..last) one pair
/// at a time and returns up to `k` best hits sorted by decreasing
/// similarity (ties broken by lower index, so results are deterministic).
/// The oracle the sweep core is tested against; no production path calls it.
[[nodiscard]] std::vector<SearchHit> top_k_search(
    const util::BitVec& query, std::span<const util::BitVec> references,
    std::size_t first, std::size_t last, std::size_t k);

/// The same search over a piecewise view (bit-identical results): a block
/// of one through sweep_top_k, per extent with global reference indices and
/// candidates in ascending global order. An invalid (empty) view yields no
/// hits.
[[nodiscard]] std::vector<SearchHit> top_k_search(const util::BitVec& query,
                                                  const RefView& references,
                                                  std::size_t first,
                                                  std::size_t last,
                                                  std::size_t k);

/// Single-best reference loop (top_k_search over the span with k = 1);
/// returns an invalid hit (!hit.valid()) if the candidate range is empty.
[[nodiscard]] SearchHit best_match(const util::BitVec& query,
                                   std::span<const util::BitVec> references,
                                   std::size_t first, std::size_t last);

/// One request of a query block: score `*hv` against references
/// [first, last) under noise stream `stream` (ignored by exact kernels;
/// conventionally the query spectrum id for simulated hardware).
struct BatchQuery {
  const util::BitVec* hv = nullptr;
  std::size_t first = 0;
  std::size_t last = 0;
  std::uint64_t stream = 0;
};

/// Inserts `hit` into `hits` keeping it sorted by (dot desc, index asc)
/// with at most `k` entries. Every top-k loop in the codebase uses this,
/// so the equal-score-orders-by-lower-index contract cannot drift: callers
/// visit references in ascending index order and equal-dot hits land after
/// their earlier-indexed peers.
inline void insert_top_k(std::vector<SearchHit>& hits, const SearchHit& hit,
                         std::size_t k) {
  if (k == 0) return;
  if (hits.size() == k && hit.dot <= hits.back().dot) return;
  const auto pos = std::upper_bound(
      hits.begin(), hits.end(), hit,
      [](const SearchHit& a, const SearchHit& b) { return a.dot > b.dot; });
  hits.insert(pos, hit);
  if (hits.size() > k) hits.pop_back();
}

/// Reference-major sweep over a query block: partitions the union of the
/// block's candidate ranges into maximal segments over which the set of
/// covering queries is constant, and calls
///
///   segment(seg_first, seg_last, active)
///
/// for each, where `active` lists the block slots whose [first, last)
/// contains the whole segment, ascending. Iterating references in the
/// outer loop and the active queries in the inner loop means each resident
/// reference (a programmed crossbar tile in hardware, a cache-resident
/// bit vector here) serves the entire block before the sweep advances —
/// the batching the paper's accelerator amortizes its cost with. Every
/// query still sees its candidates in ascending reference order, so
/// per-query results are bit-identical to an independent scan.
template <typename Fn>
void for_each_query_segment(std::span<const BatchQuery> queries,
                            Fn&& segment) {
  std::vector<std::size_t> bounds;
  bounds.reserve(queries.size() * 2);
  for (const BatchQuery& q : queries) {
    if (q.first < q.last) {
      bounds.push_back(q.first);
      bounds.push_back(q.last);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::vector<std::size_t> active;
  for (std::size_t b = 0; b + 1 < bounds.size(); ++b) {
    const std::size_t lo = bounds[b];
    const std::size_t hi = bounds[b + 1];
    active.clear();
    for (std::size_t slot = 0; slot < queries.size(); ++slot) {
      if (queries[slot].first <= lo && queries[slot].last >= hi) {
        active.push_back(slot);
      }
    }
    if (!active.empty()) {
      segment(lo, hi, std::span<const std::size_t>(active));
    }
  }
}

namespace detail {

/// Calls fn(extent, local_first, local_last) for every extent of `view`
/// overlapping global range [first, last), ascending. Binary-searches the
/// first overlapping extent, then walks forward.
template <typename Fn>
void for_each_extent_range(const RefView& view, std::size_t first,
                           std::size_t last, Fn&& fn) {
  if (first >= last) return;
  const std::span<const RefExtent> extents = view.extents();
  for (std::size_t e = view.extent_index(first); e < extents.size(); ++e) {
    const RefExtent& ext = extents[e];
    if (ext.base >= last) break;
    const std::size_t lo = std::max(first, ext.base);
    const std::size_t hi = std::min(last, ext.base + ext.rows);
    if (lo < hi) fn(ext, lo - ext.base, hi - ext.base);
  }
}

}  // namespace detail

/// Clips every query range to [0, n_refs) so a sweep only sees valid
/// indices (an empty range stays empty).
[[nodiscard]] std::vector<BatchQuery> clip_queries(
    std::span<const BatchQuery> queries, std::size_t n_refs);

/// The absent score ceiling of sweep_top_k: bounds nothing, so every pair
/// reaches the score epilogue (and the core compiles the skip test out).
struct NoCeiling {
  constexpr std::int64_t operator()(std::size_t, std::size_t) const noexcept {
    return std::numeric_limits<std::int64_t>::max();
  }
};

/// The one sweep core every non-circuit substrate scores through: a
/// reference-major, cache-blocked, tier-dispatched sweep of a query block
/// over a piecewise view. For each (slot, global reference index) it
/// computes the exact Hamming distance and hands it to the backend's score
/// epilogue,
///
///   SearchHit score(std::size_t slot, std::size_t index, std::size_t ham)
///
/// whose hit goes through insert_top_k — identity scoring for exact HD
/// (top_k_search_batch), the keyed noise model for simulated hardware
/// (accel::ImcSearchEngine). Candidates reach the epilogue in ascending
/// global order per query, so the equal-score tie-break contract holds
/// for any epilogue. Segments of constant active queries are decomposed
/// into their overlapping extents, and each extent is chunked
/// (kernels::sweep_chunk_rows) so one run of reference rows stays
/// cache-resident while every active query is scored against it — the
/// cache-level analogue of the crossbar's program-once-serve-the-block
/// phase. The kernel tier is resolved once per call.
///
/// Skip contract: an epilogue whose score is expensive (a noise draw) may
/// also pass
///
///   std::int64_t ceiling(std::size_t slot, std::size_t ham)
///
/// an upper bound on score(slot, index, ham).dot for every index,
/// non-increasing in ham. Once a slot holds k hits, the core skips the
/// epilogue for every pair whose ceiling is at most the slot's k-th dot:
/// insert_top_k would reject such a pair anyway, so the skip changes no
/// hit, dot, similarity or tie-break. The core keeps this per slot as a
/// Hamming cutoff, recomputed by binary search over [0, D] only when the
/// slot's floor rises, so a skipped pair costs one integer compare. The
/// skips depend only on the slot's own ascending candidate order, never
/// on block composition or scheduling. Without a ceiling (NoCeiling, the
/// default) every pair is scored and the loop carries no skip test.
template <typename Score, typename Ceiling = NoCeiling>
[[nodiscard]] std::vector<std::vector<SearchHit>> sweep_top_k(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k, Score&& score, Ceiling&& ceiling = {}) {
  constexpr bool kBounded =
      !std::is_same_v<std::remove_cvref_t<Ceiling>, NoCeiling>;
  std::vector<std::vector<SearchHit>> out(queries.size());
  if (k == 0 || queries.empty() || !references.valid()) return out;

  const std::vector<BatchQuery> clipped =
      clip_queries(queries, references.count());
  std::vector<const std::uint64_t*> qwords(clipped.size());
  for (std::size_t slot = 0; slot < clipped.size(); ++slot) {
    qwords[slot] = clipped[slot].hv->words().data();
  }
  const kernels::Tier tier = kernels::active_tier();
  const std::size_t ref_dim = references.dim();
  const std::size_t ref_words = references.word_count();
  std::vector<std::uint32_t> dist;  // per-chunk distances, reused

  // Per slot: the k-th dot once the slot is full, and the smallest
  // Hamming distance whose ceiling cannot beat it (pairs at or above it
  // are skipped). ref_dim + 1 skips nothing.
  std::vector<std::int64_t> floors;
  std::vector<std::size_t> skip_from;
  if constexpr (kBounded) {
    floors.assign(clipped.size(), std::numeric_limits<std::int64_t>::min());
    skip_from.assign(clipped.size(), ref_dim + 1);
  }
  const auto first_hopeless = [&](std::size_t slot, std::int64_t floor) {
    std::size_t lo = 0;
    std::size_t hi = ref_dim + 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (ceiling(slot, mid) <= floor) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  };

  for_each_query_segment(
      clipped, [&](std::size_t lo, std::size_t hi,
                   std::span<const std::size_t> active) {
        detail::for_each_extent_range(
            references, lo, hi,
            [&](const RefExtent& ext, std::size_t lfirst,
                std::size_t llast) {
              const std::size_t chunk = kernels::sweep_chunk_rows(ext.stride);
              dist.resize(std::max(dist.size(),
                                   std::min(chunk, llast - lfirst)));
              std::uint32_t* const d = dist.data();
              for (std::size_t c0 = lfirst; c0 < llast; c0 += chunk) {
                const std::size_t c1 = std::min(llast, c0 + chunk);
                for (const std::size_t slot : active) {
                  kernels::hamming_sweep_tier(tier, qwords[slot], ext,
                                              ref_words, c0, c1, d);
                  std::vector<SearchHit>& hits = out[slot];
                  if constexpr (kBounded) {
                    std::size_t limit = skip_from[slot];
                    for (std::size_t j = 0; j < c1 - c0; ++j) {
                      if (d[j] >= limit) continue;
                      insert_top_k(hits,
                                   score(slot, ext.base + c0 + j, d[j]), k);
                      if (hits.size() == k && hits.back().dot > floors[slot]) {
                        floors[slot] = hits.back().dot;
                        limit = first_hopeless(slot, floors[slot]);
                      }
                    }
                    skip_from[slot] = limit;
                  } else {
                    for (std::size_t j = 0; j < c1 - c0; ++j) {
                      insert_top_k(hits,
                                   score(slot, ext.base + c0 + j, d[j]), k);
                    }
                  }
                }
              }
            });
      });
  return out;
}

/// Batched exact kernel: searches a whole query block in one
/// reference-major sweep — sweep_top_k with the identity epilogue
/// (similarity = 1 - ham / D). result[i] is bit-identical to
/// top_k_search(*queries[i].hv, references, queries[i].first,
/// queries[i].last, k).
[[nodiscard]] std::vector<std::vector<SearchHit>> top_k_search_batch(
    std::span<const BatchQuery> queries, const RefView& references,
    std::size_t k);

}  // namespace oms::hd
