#include "index/segmented_library.hpp"

#include <filesystem>
#include <limits>
#include <stdexcept>

namespace oms::index {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("segmented library " + path + ": " + what);
}

/// Attempts at opening a generation's segments before an open gives up on
/// a manifest that keeps moving underneath it.
constexpr int kOpenAttempts = 5;

/// Opens and validates every segment `manifest` lists.
std::vector<LibraryIndex> open_segments(const std::string& path,
                                        const Manifest& manifest,
                                        const OpenOptions& opts) {
  if (manifest.segments.empty()) fail(path, "manifest lists no segments");
  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  std::vector<LibraryIndex> segments;
  segments.reserve(manifest.segments.size());
  for (const ManifestSegment& row : manifest.segments) {
    const std::string seg_path = (dir / row.name).string();
    LibraryIndex seg = LibraryIndex::open(seg_path, opts);
    if (!seg.has_entries()) {
      fail(path, "segment " + row.name + " is a hypervector-only cache");
    }
    // The manifest row is the append-time identity of the segment; any
    // drift means the file was swapped or rewritten behind the manifest.
    if (!(seg.fingerprint() == manifest.fingerprint)) {
      fail(path, "segment " + row.name +
                     " was built under a different configuration than "
                     "the manifest records");
    }
    if (seg.size() != row.entry_count) {
      fail(path, "segment " + row.name + " entry count drifted");
    }
    if (seg.file_size() != row.file_size) {
      fail(path, "segment " + row.name + " file size drifted");
    }
    if (section_table_hash(seg.sections()) != row.table_checksum) {
      fail(path, "segment " + row.name + " section table drifted");
    }
    segments.push_back(std::move(seg));
  }
  return segments;
}

}  // namespace

SegmentedLibrary SegmentedLibrary::open(const std::string& path,
                                        const OpenOptions& opts) {
  SegmentedLibrary lib;
  lib.path_ = path;
  lib.manifest_ = Manifest::load(path);
  // An open can load generation G just as a compaction publishes G+1 and
  // unlinks G's segments. A segment failure under a manifest that has
  // since moved is that race: reopen against the newer generation
  // (bounded). Under an unchanged manifest it is a real defect and throws.
  for (int attempt = 1;; ++attempt) {
    try {
      lib.segments_ = open_segments(path, lib.manifest_, opts);
      break;
    } catch (const std::exception&) {
      if (attempt == kOpenAttempts) throw;
      Manifest current = Manifest::load(path);
      if (current.combined_hash() == lib.manifest_.combined_hash()) throw;
      lib.manifest_ = std::move(current);
    }
  }

  // Merge the per-segment sorted mass axes into one global mass-sorted
  // order (ties → lowest manifest position, then local order). For
  // pairwise-distinct masses this IS the one-shot build order, which is
  // what keeps reference indices — and the index-keyed noise of the IMC
  // backends — bit-identical to a monolithic artifact.
  std::size_t total = 0;
  for (const LibraryIndex& seg : lib.segments_) total += seg.size();
  lib.hv_views_.reserve(total);
  lib.mass_axis_.reserve(total);
  lib.locations_.reserve(total);
  std::vector<ms::BinnedSpectrum> merged;
  merged.reserve(total);

  std::vector<std::size_t> heads(lib.segments_.size(), 0);
  for (std::size_t g = 0; g < total; ++g) {
    std::size_t best = lib.segments_.size();
    double best_mass = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < lib.segments_.size(); ++s) {
      if (heads[s] >= lib.segments_[s].size()) continue;
      const double mass = lib.segments_[s].mass_axis()[heads[s]];
      if (mass < best_mass) {
        best = s;
        best_mass = mass;
      }
    }
    const std::size_t local = heads[best]++;
    lib.hv_views_.push_back(lib.segments_[best].hypervectors()[local]);
    lib.mass_axis_.push_back(best_mass);
    lib.locations_.push_back(
        Location{static_cast<std::uint32_t>(best), local});
    merged.push_back(lib.segments_[best].library()[local]);
  }

  // Already mass-sorted, so the constructor's stable sort is a no-op and
  // the merge order (including tie order) survives verbatim.
  lib.library_ = ms::SpectralLibrary(std::move(merged));

  // Piecewise layout of the merged order: maximal runs of same-segment
  // rows coalesce into one extent each (a one-segment library is exactly
  // one extent). The extents point into the mapped blocks, so the view
  // survives moves of this object.
  lib.ref_view_ = hd::RefView::from_span(lib.hv_views_);
  return lib;
}

}  // namespace oms::index
