// Shared plumbing of the OMS benchmark: run arguments, the metric report,
// sample statistics, PSM digests and process-wide counters.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;       ///< Tiny inputs: output checks only.
  std::string workdir;      ///< Scratch space for index artifacts.
};

/// Metrics, operation accounting and output checks of one workload run.
/// Metric names and units are fixed by the tables in main.cpp.
class Report {
 public:
  void set(const std::string& name, double value) { values[name] = value; }

  /// One attempted operation (request, pass, append, compaction).
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// One output check; a mismatch also counts as a failed operation.
  void check(bool ok, const std::string& what);

  std::map<std::string, double> values;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
};

// --- sample statistics ----------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

// --- PSM digests ----------------------------------------------------------

/// FNV-1a over every field of every PSM of a result — all PSMs, then the
/// accepted list: two results digest equal iff they are bit-identical.
[[nodiscard]] std::uint64_t digest(const oms::core::PipelineResult& r);

// --- process-wide counters ------------------------------------------------

[[nodiscard]] double peak_rss_mb();    ///< getrusage ru_maxrss.
[[nodiscard]] double cpu_seconds();    ///< User + system time, all threads.
[[nodiscard]] double page_faults();    ///< Minor + major faults so far.
[[nodiscard]] std::size_t thread_count();  ///< /proc/self/status Threads:.

/// Background poller for peak values during a measured window (thread
/// count, scheduler backlog). Polls every 2 ms until destroyed.
class PeakSampler {
 public:
  explicit PeakSampler(std::function<double()> extra = {});
  ~PeakSampler();

  PeakSampler(const PeakSampler&) = delete;
  PeakSampler& operator=(const PeakSampler&) = delete;

  [[nodiscard]] std::size_t threads_peak() const noexcept {
    return threads_peak_.load();
  }
  [[nodiscard]] double extra_peak() const noexcept {
    return extra_peak_.load();
  }

 private:
  std::function<double()> extra_;
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> threads_peak_{0};
  std::atomic<double> extra_peak_{0.0};
  std::thread thread_;  ///< Last: starts after the members it reads.
};

/// Share of the engine's encode + search stage time spent encoding, from
/// the engine's own stage histograms (0 when neither stage ran).
[[nodiscard]] double encode_share(const oms::obs::Snapshot& s);

/// Kernel tier name → number for the per-layer metric (0 = the backend
/// never touches the digital popcount kernel).
[[nodiscard]] double kernel_tier_code(const std::string& kernel);

// --- workloads ------------------------------------------------------------

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 7;

/// The paper's operating point: D = 8192, 3-bit IDs, paper seeds.
[[nodiscard]] oms::core::PipelineConfig paper_config(
    const std::string& backend, bool open_search);

void run_offline(const Args& args, Report& report);
void run_serve_grow(const Args& args, Report& report);

/// Writes a manifest listing `segment_names` (files next to it, in
/// order) — how a set of existing segments becomes one library without
/// re-encoding anything.
void write_manifest(const std::string& manifest_path,
                    const std::vector<std::string>& segment_names);

}  // namespace perfbench
