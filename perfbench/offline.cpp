// Offline workloads: one client submits the whole query set to one
// core::QueryEngine over a persistent LibraryIndex and drains it.
//
//   oms-rram   open search (±500 Da) on "rram-statistical": the paper's own
//              substrate and window; the sweep and noise path dominate.
//   std-ideal  standard search (±0.05 Da) on "ideal-hd" with many more
//              queries: windows hold a few candidates, query encoding
//              dominates.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/query_engine.hpp"
#include "index/index_builder.hpp"
#include "index/library_index.hpp"
#include "ms/synthetic.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using oms::core::Pipeline;

/// Most append + compaction cycles one run makes, one after each pass.
constexpr std::size_t kGrowthCycles = 8;

struct OfflineSpec {
  std::string backend;
  bool open_search = true;
  std::size_t refs = 0;         ///< Target peptides in the library.
  std::size_t queries = 0;      ///< Query spectra per pass.
  std::size_t grow_batch = 0;   ///< Peptides per growth append.
  /// Library builds whose median rate is reported. The exact encoder is
  /// memory-bound and its rate swings from build to build, so it takes
  /// three; the IMC-model build is compute-bound (and ~10 s), so one.
  int builds = 1;
};

OfflineSpec spec_for(const Args& a) {
  const std::size_t refs = a.smoke ? 600 : 20000;
  const std::size_t grow = a.smoke ? 40 : 1000;
  if (a.workload == "oms-rram") {
    return {"rram-statistical", true, refs, a.smoke ? 60u : 2000u, grow, 1};
  }
  return {"ideal-hd", false, refs, a.smoke ? 200u : 12000u, grow, 3};
}

/// The engine configuration Pipeline::run uses.
oms::core::QueryEngineConfig engine_config() {
  oms::core::QueryEngineConfig ecfg;
  ecfg.stage_threads = std::clamp<std::size_t>(
      oms::util::ThreadPool::global().thread_count(), 1, 8);
  ecfg.queue_blocks = 2 * ecfg.stage_threads + 2;
  return ecfg;
}

struct Pass {
  double wall_s = 0.0;
  /// Per query: submit() called → drain() returned. Under the drain-time
  /// emit policy that is when the query's result reaches the client.
  std::vector<double> latency_s;
  oms::core::PipelineResult result;
  oms::core::BackendStats backend;  ///< Counter delta of this pass.
};

/// One pass: engine construction, every query submitted, drain.
Pass run_pass(Pipeline& p, const std::vector<oms::ms::Spectrum>& queries,
              oms::obs::MetricsRegistry* metrics, oms::obs::Tracer* tracer) {
  oms::core::QueryEngineConfig ecfg = engine_config();
  ecfg.metrics = metrics;
  ecfg.tracer = tracer;
  Pass pass;
  std::vector<Clock::time_point> submitted(queries.size());
  const oms::core::BackendStats before = p.backend_stats();
  const Clock::time_point t0 = Clock::now();
  {
    oms::core::QueryEngine engine(p, ecfg);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      submitted[i] = Clock::now();
      engine.submit(queries[i]);
    }
    pass.result = engine.drain();
    const Clock::time_point drained = Clock::now();
    pass.latency_s.reserve(queries.size());
    for (const Clock::time_point t : submitted) {
      pass.latency_s.push_back(
          std::chrono::duration<double>(drained - t).count());
    }
  }
  pass.wall_s = seconds_since(t0);
  pass.backend = p.backend_stats().since(before);
  return pass;
}

}  // namespace

/// Library growth timed beside an offline workload. Every cycle starts
/// from the built library alone — made the base segment of a fresh
/// manifest by a hard link, no re-encode — appends one batch and compacts,
/// so each cycle does the same amount of work.
class Growth {
 public:
  Growth(const oms::core::PipelineConfig& cfg, std::string library_path,
         fs::path dir)
      : builder_(cfg),
        library_(std::move(library_path)),
        dir_(std::move(dir)) {}

  void cycle(const std::vector<oms::ms::Spectrum>& batch, Report& report) {
    const fs::path dir = dir_ / ("cycle-" + std::to_string(append_s_.size()));
    fs::create_directories(dir);
    fs::create_hard_link(library_, dir / "base.omsx");
    const std::string manifest = (dir / "library.omsxm").string();
    write_manifest(manifest, {"base.omsx"});

    Clock::time_point t0 = Clock::now();
    const oms::index::BuildStats a = builder_.append(batch, manifest);
    append_s_.push_back(seconds_since(t0));
    append_rate_.push_back(static_cast<double>(a.entries) / append_s_.back());
    report.op(true);
    t0 = Clock::now();
    (void)builder_.compact(manifest);
    compact_s_.push_back(seconds_since(t0));
    report.op(true);
    fs::remove_all(dir);
  }

  void report_to(Report& report) const {
    std::printf("growth:");
    for (std::size_t i = 0; i < append_s_.size(); ++i) {
      std::printf(" append %.3f s compact %.3f s;", append_s_[i],
                  compact_s_[i]);
    }
    std::printf("\n");
    report.set("append_spectra_per_s", median(append_rate_));
    report.set("compact_s", median(compact_s_));
    report.set("index.append_s", median(append_s_));
    report.set("index.compact_s", median(compact_s_));
    report.set("index.segments_max", 2.0);
  }

 private:
  oms::index::IndexBuilder builder_;
  std::string library_;
  fs::path dir_;
  std::vector<double> append_rate_;
  std::vector<double> append_s_;
  std::vector<double> compact_s_;
};

void run_offline(const Args& args, Report& report) {
  const OfflineSpec spec = spec_for(args);
  oms::ms::WorkloadConfig wc;
  wc.reference_count = spec.refs;
  wc.query_count = spec.queries;
  wc.seed = args.seed;
  const oms::ms::Workload wl = oms::ms::generate_workload(wc);
  // Growth batches: peptides the queries were not drawn from.
  oms::ms::WorkloadConfig gc;
  gc.reference_count = kGrowthCycles * spec.grow_batch;
  gc.query_count = 1;
  gc.seed = args.seed ^ 0x67726F77ULL;
  const oms::ms::Workload grow = oms::ms::generate_workload(gc);
  std::vector<std::vector<oms::ms::Spectrum>> batches;
  for (std::size_t i = 0; i < kGrowthCycles; ++i) {
    batches.emplace_back(grow.references.begin() + i * spec.grow_batch,
                         grow.references.begin() + (i + 1) * spec.grow_batch);
  }

  const oms::core::PipelineConfig cfg =
      paper_config(spec.backend, spec.open_search);
  const std::string path = (fs::path(args.workdir) / "library.omsx").string();

  // Build.
  std::vector<double> build_rate;
  std::vector<double> build_s;
  oms::index::BuildStats built;
  for (int rep = 0; rep < spec.builds; ++rep) {
    const Clock::time_point t0 = Clock::now();
    built = oms::index::IndexBuilder(cfg).build(wl.references, path);
    build_s.push_back(seconds_since(t0));
    build_rate.push_back(static_cast<double>(built.entries) / build_s.back());
    report.op(true);
  }
  report.set("build_spectra_per_s", median(build_rate));

  // Set-up: open the artifact and adopt it, until a query can be admitted.
  std::vector<double> setup_s;
  std::vector<double> open_s;
  std::vector<double> set_library_s;
  std::unique_ptr<Pipeline> pipeline;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pipeline.reset();
    const Clock::time_point t0 = Clock::now();
    auto index = std::make_shared<const oms::index::LibraryIndex>(
        oms::index::LibraryIndex::open(path));
    const double opened = seconds_since(t0);
    pipeline = std::make_unique<Pipeline>(cfg);
    pipeline->set_library(index);
    setup_s.push_back(seconds_since(t0));
    open_s.push_back(opened);
    set_library_s.push_back(setup_s.back() - opened);
  }
  report.set("setup_s", median(setup_s));

  // Warm-up pass: fills the ID bank and noise calibrations, and is the
  // reference every timed pass must reproduce bit for bit.
  const Pass warm = run_pass(*pipeline, wl.queries, nullptr, nullptr);
  const std::uint64_t want = digest(warm.result);
  report.op(true);
  report.check(!warm.result.accepted.empty(), "identifications at 1% FDR");

  // Timed passes; a traced run alternates untraced and traced passes so
  // the tracing overhead is a measured difference.
  oms::obs::MetricsRegistry registry;
  oms::obs::Tracer tracer(oms::obs::TracerConfig{1024, 1});
  std::vector<double> walls;
  std::vector<double> traced_walls;
  std::vector<double> latency;
  std::unique_ptr<PeakSampler> sampler;
  if (args.trace) sampler = std::make_unique<PeakSampler>();
  const double cpu0 = cpu_seconds();
  const double faults0 = page_faults();
  // Growth cycles interleave with the passes, so every metric samples the
  // whole window rather than one stretch of it.
  Growth growth(cfg, path, fs::path(args.workdir) / "grow");
  const Clock::time_point window = Clock::now();
  while (walls.size() < 2 || (args.trace && traced_walls.size() < 2) ||
         seconds_since(window) < args.seconds) {
    const bool traced = args.trace && walls.size() > traced_walls.size();
    const Pass p = run_pass(*pipeline, wl.queries, traced ? &registry : nullptr,
                            traced ? &tracer : nullptr);
    report.check(digest(p.result) == want,
                 "pass reproduces the warm-up pass bit for bit");
    (traced ? traced_walls : walls).push_back(p.wall_s);
    if (!traced) {
      latency.insert(latency.end(), p.latency_s.begin(), p.latency_s.end());
    }
    const std::size_t cycles = walls.size() + traced_walls.size() - 1;
    if (cycles < batches.size()) growth.cycle(batches[cycles], report);
  }
  const double window_s = seconds_since(window);
  const double cpu_s = cpu_seconds() - cpu0;
  const double faults = page_faults() - faults0;
  const std::size_t threads_peak = sampler ? sampler->threads_peak() : 0;
  sampler.reset();
  const double rss_mb = peak_rss_mb();

  const auto n = static_cast<double>(wl.queries.size());
  report.set("qps", n / median(walls));
  report.set("peak_rss_mb", rss_mb);
  report.set("ids_1pct", static_cast<double>(warm.result.accepted.size()));
  // Each query is a request; under the drain-time emit policy the first
  // accepted PSM of a pass arrives when drain() returns.
  report.set("request_p50_s", median(latency));
  report.set("request_p95_s", quantile(latency, 0.95));
  report.set("ttfp_p50_s", median(walls));
  std::printf("pass qps:");
  for (const double w : walls) std::printf(" %.0f", n / w);
  std::printf("\n");
  std::printf("passes: %zu untraced, %zu traced over %.2f s; %zu queries, "
              "%zu searched, %zu accepted; digest %016" PRIx64
              "; backend %s, kernel '%s'\n",
              walls.size(), traced_walls.size(), window_s, wl.queries.size(),
              warm.result.queries_searched, warm.result.accepted.size(), want,
              warm.backend.backend.c_str(), warm.backend.kernel.c_str());

  growth.report_to(report);

  if (!args.trace) return;
  const double traced_qps = n / median(traced_walls);
  std::printf("traced passes: qps %.2f vs untraced %.2f\n", traced_qps,
              n / median(walls));
  report.set("trace.overhead_frac", median(traced_walls) / median(walls) - 1.0);
  report.set("engine.encode_share", encode_share(registry.snapshot()));
  const ReplayResult r =
      replay(*pipeline, wl.queries, engine_config().block_size);
  report_replay(r, want, median(walls), warm.backend, cfg.encoder.dim, report);
  report.set("index.build_s", median(build_s));
  report.set("index.file_mb",
             static_cast<double>(built.file_bytes) / 1048576.0);
  report.set("index.open_s", median(open_s));
  report.set("index.set_library_s", median(set_library_s));
  for (const char* name : {"serve.open_s", "serve.submit_s", "serve.close_s",
                           "serve.cache_hit_ratio", "serve.backend_hit_ratio",
                           "serve.sched_waiting_max", "serve.compactions"}) {
    report.set(name, 0.0);  // no serve layer in an offline workload
  }
  report.set("proc.cpu_s", cpu_s);
  report.set("proc.cpu_util",
             cpu_s / (window_s * std::thread::hardware_concurrency()));
  report.set("proc.threads_peak", static_cast<double>(threads_peak));
  report.set("proc.page_faults", faults);
}

}  // namespace perfbench
