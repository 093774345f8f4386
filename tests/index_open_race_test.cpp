// Opening a segmented library while the writer moves it on (runs under
// the `tsan` ctest label as well as `io`). An open can load manifest
// generation G just as a compaction publishes G+1 and unlinks G's
// segments; SegmentedLibrary::open must then reopen against the newer
// generation instead of failing with "cannot open ...seg-NNNN.omsx". A
// manifest that has NOT moved but names a missing segment is a real
// defect and must still throw.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "index/index_builder.hpp"
#include "index/manifest.hpp"
#include "index/segmented_library.hpp"
#include "ms/synthetic.hpp"
#include "serve/library_cache.hpp"

namespace {

using namespace oms;

core::PipelineConfig test_config() {
  core::PipelineConfig cfg;
  cfg.encoder.dim = 1024;
  cfg.encoder.bins = cfg.preprocess.bin_count();
  cfg.encoder.chunks = 32;
  cfg.backend_name = "ideal-hd";
  cfg.rescore_top_k = 4;
  cfg.seed = 20241017;
  return cfg;
}

std::vector<ms::Spectrum> slice(const std::vector<ms::Spectrum>& all,
                                std::size_t first, std::size_t count) {
  const auto begin = all.begin() + static_cast<std::ptrdiff_t>(first);
  return {begin, begin + static_cast<std::ptrdiff_t>(count)};
}

/// Removes the manifest at `path` and every segment it lists.
void remove_library(const std::string& path) {
  const auto man = index::Manifest::load(path);
  const auto dir = std::filesystem::path(path).parent_path();
  for (const auto& seg : man.segments) std::filesystem::remove(dir / seg.name);
  std::remove(path.c_str());
}

TEST(IndexOpenRace, LeaseNeverFailsWhileAppendAndCompactLoop) {
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 420;
  wcfg.query_count = 1;
  wcfg.seed = 61;
  const ms::Workload wl = ms::generate_workload(wcfg);
  const std::size_t batch = 30;
  ASSERT_GE(wl.references.size(), 14 * batch);

  const auto cfg = test_config();
  const std::string path = testing::TempDir() + "open_race.omsman";
  std::remove(path.c_str());
  const index::IndexBuilder builder(cfg);
  (void)builder.append(slice(wl.references, 0, batch), path);
  (void)builder.append(slice(wl.references, batch, batch), path);
  // Entries per two batches (the builder adds decoys).
  const std::size_t base = index::SegmentedLibrary::open(path).size();

  // Every cycle grows the library by one segment and then compacts it,
  // unlinking the segments the previous generation listed.
  std::atomic<bool> writing{true};
  std::thread writer([&] {
    for (std::size_t c = 2; c < 14; ++c) {
      (void)builder.append(slice(wl.references, c * batch, batch), path);
      (void)builder.compact(path);
    }
    writing.store(false);
  });

  // One reader leases through a LibraryCache (a miss per generation);
  // two more open the manifest directly back to back, so some open is
  // almost always in flight when a compaction unlinks segments.
  serve::LibraryCacheConfig cache_cfg;
  cache_cfg.capacity = 2;
  serve::LibraryCache cache(cache_cfg);
  constexpr std::size_t kReaders = 3;
  std::vector<std::size_t> opens(kReaders, 0);
  std::vector<std::vector<std::string>> failures(kReaders);
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (writing.load() || opens[r] == 0) {
        try {
          const std::size_t size =
              r == 0 ? cache.lease(path, cfg).segmented->size()
                     : index::SegmentedLibrary::open(path).size();
          EXPECT_GE(size, base);
          ++opens[r];
        } catch (const std::exception& e) {
          failures[r].push_back(e.what());
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_EQ(failures[r].size(), 0u)
        << "reader " << r << " of " << opens[r] + failures[r].size()
        << ", first failure: "
        << (failures[r].empty() ? "" : failures[r].front());
    EXPECT_GT(opens[r], 0u);
  }

  // The final generation opens directly too: one compacted segment.
  const auto last = index::SegmentedLibrary::open(path);
  EXPECT_EQ(last.segment_count(), 1u);
  EXPECT_EQ(last.size(), 7 * base);
  remove_library(path);
}

TEST(IndexOpenRace, UnchangedManifestNamingAMissingSegmentThrows) {
  ms::WorkloadConfig wcfg;
  wcfg.reference_count = 80;
  wcfg.query_count = 1;
  wcfg.seed = 62;
  const ms::Workload wl = ms::generate_workload(wcfg);
  const auto cfg = test_config();
  const std::string path = testing::TempDir() + "open_missing.omsman";
  std::remove(path.c_str());
  const index::IndexBuilder builder(cfg);
  (void)builder.append(slice(wl.references, 0, 40), path);
  (void)builder.append(slice(wl.references, 40, 40), path);

  const auto man = index::Manifest::load(path);
  ASSERT_EQ(man.segments.size(), 2u);
  const auto dir = std::filesystem::path(path).parent_path();
  const std::string missing = man.segments[1].name;
  std::filesystem::remove(dir / missing);

  try {
    (void)index::SegmentedLibrary::open(path);
    ADD_FAILURE() << "open succeeded over a missing segment";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
  serve::LibraryCache cache;
  EXPECT_THROW((void)cache.lease(path, cfg), std::runtime_error);
  // The manifest itself is untouched by the failed opens.
  EXPECT_EQ(index::Manifest::load(path).combined_hash(), man.combined_hash());

  std::filesystem::remove(dir / man.segments[0].name);
  std::remove(path.c_str());
}

}  // namespace
