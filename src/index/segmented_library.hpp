// SegmentedLibrary: a manifest of immutable LibraryIndex segments opened
// and searched as ONE logical library.
//
// Each segment is a complete "OMSXIDX1" artifact (index/library_index.hpp)
// mapped through util::MappedFile exactly as a monolithic index would be.
// open() k-way-merges the segments' sorted precursor-mass axes into one
// global mass-sorted order (ties broken by manifest order, then local
// order) and presents merged entries, a merged mass axis, and zero-copy
// hypervector views in that order. For libraries whose precursor masses
// are pairwise distinct across segment boundaries — every synthesized and
// real-spectrum workload in this repo — the merged order is exactly the
// order a one-shot IndexBuilder::build of the union would produce, so
// global reference indices (and with them the index-keyed search noise
// and `Psm::reference_index`) carry over
// unchanged and search results are bit-identical to the monolithic
// artifact. Exactly-equal masses across segments order manifest-wise
// here versus build-interleave-wise one-shot; compaction (which rewrites
// through the one-shot writer) canonicalizes such ties.
//
// The mapped word blocks of different segments are disjoint allocations,
// so a multi-segment library is never ONE contiguous block — but the
// merged order decomposes into runs of same-segment rows, each a
// contiguous slice of one mapped block. ref_view() exposes exactly that
// piecewise layout as an hd::RefView (built once at open), so the SIMD
// sweeps keep running block-wise across segment boundaries instead of
// dropping to per-vector kernels; compaction (IndexBuilder::compact)
// collapses the view back to a single extent.
//
// Segments are immutable and the manifest swaps atomically, so a
// SegmentedLibrary is safe to share across any number of concurrent
// readers, and stays valid even while append/compact produce the next
// generation alongside it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hd/kernels.hpp"
#include "index/library_index.hpp"
#include "index/manifest.hpp"
#include "ms/library.hpp"
#include "util/bitvec.hpp"

namespace oms::index {

class SegmentedLibrary {
 public:
  /// Where a global (merged-order) reference index lives.
  struct Location {
    std::uint32_t segment = 0;  ///< Manifest position.
    std::uint64_t local = 0;    ///< Entry index within that segment.
  };

  /// Loads the manifest at `path` and opens + validates every segment:
  /// per-segment fingerprints must equal the manifest's, entry counts,
  /// file sizes and section-table hashes must match the manifest rows
  /// (a swapped or rewritten segment fails loudly), and every segment
  /// must be a full-entries index. Throws std::runtime_error on any
  /// violation; `opts` is forwarded to each segment open. A segment that
  /// fails while the manifest on disk has moved to a new generation (a
  /// compaction unlinked it mid-open) is retried against that generation,
  /// at most 5 attempts in all; an unchanged manifest naming a missing or
  /// drifted segment throws on the first attempt.
  [[nodiscard]] static SegmentedLibrary open(const std::string& path,
                                             const OpenOptions& opts = {});

  SegmentedLibrary(SegmentedLibrary&&) = default;
  SegmentedLibrary& operator=(SegmentedLibrary&&) = default;
  SegmentedLibrary(const SegmentedLibrary&) = delete;
  SegmentedLibrary& operator=(const SegmentedLibrary&) = delete;

  [[nodiscard]] const IndexFingerprint& fingerprint() const noexcept {
    return manifest_.fingerprint;
  }
  [[nodiscard]] std::size_t size() const noexcept { return hv_views_.size(); }
  [[nodiscard]] std::uint32_t dim() const noexcept {
    return manifest_.fingerprint.enc_dim;
  }

  /// The merged logical library (global mass-sorted order) — what
  /// Pipeline::library() serves on the segmented path.
  [[nodiscard]] const ms::SpectralLibrary& library() const noexcept {
    return library_;
  }

  /// Zero-copy views into the segments' mapped word blocks, in global
  /// order. Valid as long as this object lives.
  [[nodiscard]] std::span<const util::BitVec> hypervectors() const noexcept {
    return hv_views_;
  }

  /// Piecewise reference view over the same rows: one contiguous extent
  /// per maximal run of same-segment rows in the merged order (a
  /// one-segment library is a single extent, like a LibraryIndex).
  /// Built once at open; valid as long as this object lives, and stable
  /// across moves (extents point into the mapped blocks, which never
  /// relocate).
  [[nodiscard]] const hd::RefView& ref_view() const noexcept {
    return ref_view_;
  }

  [[nodiscard]] std::span<const double> mass_axis() const noexcept {
    return mass_axis_;
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> mass_window(
      double mass, double tolerance) const noexcept {
    return library_.mass_window(mass, tolerance);
  }

  [[nodiscard]] Location locate(std::size_t global) const noexcept {
    return locations_[global];
  }
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return segments_.size();
  }
  [[nodiscard]] const LibraryIndex& segment(std::size_t i) const noexcept {
    return segments_[i];
  }
  [[nodiscard]] const Manifest& manifest() const noexcept { return manifest_; }
  /// The generation identity (Manifest::combined_hash of what was opened).
  [[nodiscard]] std::uint64_t combined_hash() const noexcept {
    return manifest_.combined_hash();
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  SegmentedLibrary() = default;

  std::string path_;
  Manifest manifest_;
  std::vector<LibraryIndex> segments_;
  std::vector<util::BitVec> hv_views_;  ///< Global order; view copies.
  hd::RefView ref_view_;                ///< Piecewise layout of hv_views_.
  std::vector<double> mass_axis_;       ///< Owned merged axis.
  std::vector<Location> locations_;     ///< Global index → segment slot.
  ms::SpectralLibrary library_;         ///< Merged, materialized.
};

}  // namespace oms::index
