#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "bench_common.hpp"
#include "index/library_index.hpp"
#include "index/manifest.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  op(ok);
  if (!ok) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

namespace {

class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001B3ULL;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  [[nodiscard]] std::uint64_t get() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

void add_psms(Fnv& f, const std::vector<oms::core::Psm>& psms) {
  f.value(psms.size());
  for (const oms::core::Psm& p : psms) {
    f.value(p.query_id);
    f.value(p.peptide.size());
    f.bytes(p.peptide.data(), p.peptide.size());
    f.value(std::bit_cast<std::uint64_t>(p.score));
    f.value(static_cast<std::uint8_t>(p.is_decoy));
    f.value(std::bit_cast<std::uint64_t>(p.mass_shift));
    f.value(static_cast<std::uint64_t>(p.reference_index));
  }
}

}  // namespace

std::uint64_t digest(const oms::core::PipelineResult& r) {
  Fnv f;
  add_psms(f, r.psms);
  add_psms(f, r.accepted);
  return f.get();
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(u.ru_utime) + tv(u.ru_stime);
}

double page_faults() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_minflt + u.ru_majflt);
}

std::size_t thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      std::size_t n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

PeakSampler::PeakSampler(std::function<double()> extra)
    : extra_(std::move(extra)), thread_([this] {
        while (!stop_.load()) {
          threads_peak_.store(std::max(threads_peak_.load(), thread_count()));
          if (extra_) {
            extra_peak_.store(std::max(extra_peak_.load(), extra_()));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

PeakSampler::~PeakSampler() {
  stop_.store(true);
  thread_.join();
}

double encode_share(const oms::obs::Snapshot& s) {
  const oms::obs::HistogramSnapshot* enc =
      s.histogram("engine.stage.encode_seconds");
  const oms::obs::HistogramSnapshot* search =
      s.histogram("engine.stage.search_seconds");
  const double e = enc != nullptr ? enc->sum : 0.0;
  const double q = search != nullptr ? search->sum : 0.0;
  return e + q > 0.0 ? e / (e + q) : 0.0;
}

double kernel_tier_code(const std::string& kernel) {
  if (kernel == "scalar") return 1.0;
  if (kernel == "avx2") return 2.0;
  if (kernel == "avx512") return 3.0;
  return 0.0;
}

oms::core::PipelineConfig paper_config(const std::string& backend,
                                       bool open_search) {
  oms::core::PipelineConfig cfg = oms::bench::paper_pipeline_config();
  cfg.backend_name = backend;
  cfg.open_search = open_search;
  return cfg;
}

void write_manifest(const std::string& manifest_path,
                    const std::vector<std::string>& segment_names) {
  const std::filesystem::path dir =
      std::filesystem::path(manifest_path).parent_path();
  oms::index::Manifest m;
  for (const std::string& name : segment_names) {
    const oms::index::LibraryIndex seg =
        oms::index::LibraryIndex::open((dir / name).string());
    if (m.segments.empty()) m.fingerprint = seg.fingerprint();
    oms::index::ManifestSegment row;
    row.name = name;
    row.entry_count = seg.size();
    row.base = m.total_entries();
    row.file_size = seg.file_size();
    row.table_checksum = oms::index::section_table_hash(seg.sections());
    m.segments.push_back(row);
  }
  // Past every sequence number the segment names could collide with.
  m.next_sequence = 1000000;
  m.save(manifest_path);
}

}  // namespace perfbench
