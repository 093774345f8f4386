// serve-grow: one serve::SearchServer over a manifest-backed "ideal-hd"
// library with an open (±500 Da) window while the library grows.
//
// Three reader clients run a closed loop — open a session, submit a run of
// spectra, close() — and one writer appends peptide batches at a fixed
// cadence, each followed by a deterministic Maintainer::run_once(); with
// max_segments = 1 every append is compacted, so requests lease two-segment
// generations while a compaction runs and freshly compacted ones after it.
// The writer is busy about half the window: heavier, and reader latency
// would swing with how far the writer falls behind. After the timed
// window, sampled requests are checked against a solo Pipeline::run over a
// one-shot rebuild of the generation they leased.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "index/index_builder.hpp"
#include "index/manifest.hpp"
#include "index/segmented_library.hpp"
#include "ms/synthetic.hpp"
#include "replay.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Reader clients; with the writer, one client per core of a 4-vCPU box.
constexpr std::size_t kReaders = 3;
/// Requests verified against a solo run after the window.
constexpr std::size_t kChecks = 4;

struct GrowSpec {
  std::size_t base_refs = 0;   ///< Target peptides in the base build.
  std::size_t batch = 0;       ///< Peptides per append.
  double cadence_s = 0.0;      ///< Writer period: one append + maintenance.
  std::size_t run_size = 0;    ///< Spectra per request.
  std::size_t pool = 0;        ///< Distinct query spectra.
  int builds = 3;              ///< Base builds; the median rate is reported.

  /// Appends that fit the window, leaving one period of reads at its end.
  [[nodiscard]] std::size_t appends(double seconds) const {
    const auto n = static_cast<std::size_t>(seconds / cadence_s);
    return n > 1 ? n - 1 : 1;
  }
};

GrowSpec spec_for(const Args& a) {
  if (a.smoke) return {600, 50, a.seconds / 4, 20, 200, 1};
  return {20000, 1000, 2.5, 100, 6000, 3};
}

struct Request {
  std::size_t run = 0;            ///< Index of the query run submitted.
  bool ok = false;
  bool traced = false;
  double open_s = 0.0;
  double submit_s = 0.0;
  double close_s = 0.0;
  double latency_s = 0.0;         ///< open() → close() returned.
  double ttfp_s = -1.0;           ///< open() → first on_accept (-1: none).
  std::uint64_t generation = 0;
  std::uint64_t digest = 0;
  bool cache_hit = false;
  bool backend_hit = false;
};

/// First on_accept time of one request; callbacks race from engine threads.
struct FirstAccept {
  std::once_flag once;
  Clock::time_point at{};
};

/// Segment files kept alive (hard links) so any generation's library can
/// be reassembled after compaction has unlinked its segments.
class SegmentKeeper {
 public:
  SegmentKeeper(std::string manifest, fs::path dir)
      : manifest_(std::move(manifest)), dir_(std::move(dir)) {
    fs::create_directories(dir_);
  }
  /// Links the manifest's newest segment; returns the manifest's state.
  oms::index::Manifest keep_newest() {
    const oms::index::Manifest m = oms::index::Manifest::load(manifest_);
    const fs::path src =
        fs::path(manifest_).parent_path() / m.segments.back().name;
    names_.push_back("kept-" + std::to_string(names_.size()) + ".omsx");
    fs::create_hard_link(src, dir_ / names_.back());
    return m;
  }
  /// A one-shot library of the base build plus the first k batches: a
  /// manifest over the kept segments, compacted into one artifact.
  std::string one_shot(const oms::core::PipelineConfig& cfg, std::size_t k,
                       const fs::path& into) const {
    fs::create_directories(into);
    std::vector<std::string> names(names_.begin(), names_.begin() + k + 1);
    for (const std::string& n : names) {
      fs::create_hard_link(dir_ / n, into / n);
    }
    const std::string manifest = (into / "library.omsxm").string();
    write_manifest(manifest, names);
    (void)oms::index::IndexBuilder(cfg).compact(manifest);
    return manifest;
  }

 private:
  std::string manifest_;
  fs::path dir_;
  std::vector<std::string> names_;  ///< names_[k]: base (k = 0) or batch k.
};

/// Up to `n` requests spread over the generations seen, fewest batches
/// first and most batches last.
std::vector<const Request*> sample_requests(
    const std::vector<Request>& reqs,
    const std::map<std::uint64_t, std::size_t>& batches_of, std::size_t n) {
  std::map<std::size_t, const Request*> by_k;
  for (const Request& r : reqs) {
    const auto it = batches_of.find(r.generation);
    if (r.ok && it != batches_of.end()) by_k.emplace(it->second, &r);
  }
  std::vector<const Request*> all;
  for (const auto& [k, r] : by_k) all.push_back(r);
  if (all.size() <= n) return all;
  std::vector<const Request*> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(all[i * (all.size() - 1) / (n - 1)]);
  }
  return out;
}

}  // namespace

void run_serve_grow(const Args& args, Report& report) {
  const GrowSpec spec = spec_for(args);
  const std::size_t appends = spec.appends(args.seconds);
  oms::ms::WorkloadConfig wc;
  wc.reference_count = spec.base_refs + appends * spec.batch;
  wc.query_count = spec.pool;
  wc.seed = args.seed;
  const oms::ms::Workload wl = oms::ms::generate_workload(wc);
  const std::vector<oms::ms::Spectrum> base(
      wl.references.begin(), wl.references.begin() + spec.base_refs);
  const std::size_t runs = spec.pool / spec.run_size;
  const auto run_queries = [&](std::size_t run) {
    return std::span<const oms::ms::Spectrum>(wl.queries)
        .subspan((run % runs) * spec.run_size, spec.run_size);
  };

  const oms::core::PipelineConfig cfg = paper_config("ideal-hd", true);
  const oms::index::IndexBuilder builder(cfg);

  // Base build: the first append creates a manifest. The last build's
  // library is the one served.
  std::vector<double> build_rate;
  std::vector<double> build_s;
  oms::index::BuildStats built;
  fs::path dir;
  for (int rep = 0; rep < spec.builds; ++rep) {
    if (!dir.empty()) fs::remove_all(dir);
    dir = fs::path(args.workdir) / ("serve-" + std::to_string(rep));
    fs::create_directories(dir);
    const Clock::time_point t0 = Clock::now();
    built = builder.append(base, (dir / "library.omsxm").string());
    build_s.push_back(seconds_since(t0));
    build_rate.push_back(static_cast<double>(built.entries) / build_s.back());
    report.op(true);
  }
  report.set("build_spectra_per_s", median(build_rate));
  const std::string manifest = (dir / "library.omsxm").string();
  SegmentKeeper keeper(manifest, fs::path(args.workdir) / "kept");
  std::map<std::uint64_t, std::size_t> batches_of;  ///< generation → k.
  batches_of[keeper.keep_newest().combined_hash()] = 0;

  oms::serve::SearchServerConfig scfg;
  scfg.max_sessions = 4 * kReaders;
  scfg.maintainer.interval = std::chrono::milliseconds(0);
  scfg.maintainer.max_segments = 1;
  scfg.maintainer.small_segment_fraction = 0.0;
  const auto session_config = [&](bool traced) {
    oms::serve::SessionConfig c;
    c.pipeline = cfg;
    c.trace_sample_every = traced ? 1 : 0;
    return c;
  };

  // Set-up: server construction plus the first (cold-cache) open.
  std::vector<double> setup_s;
  std::unique_ptr<oms::serve::SearchServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<oms::serve::SearchServer>(scfg);
    auto session = server->open(manifest, session_config(false));
    setup_s.push_back(seconds_since(t0));
    (void)session->close();
  }
  report.set("setup_s", median(setup_s));

  // Timed window.
  std::mutex mutex;  // guards requests, batches_of and the writer samples
  std::vector<Request> requests;
  std::vector<double> append_rate;
  std::vector<double> append_s;
  std::vector<double> compact_s;
  std::size_t segments_max = 1;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> next_run{0};
  std::unique_ptr<PeakSampler> sampler;
  if (args.trace) {
    sampler = std::make_unique<PeakSampler>([&server] {
      return static_cast<double>(server->scheduler().stats().waiting);
    });
  }
  const double cpu0 = cpu_seconds();
  const double faults0 = page_faults();
  const oms::obs::Snapshot metrics0 = server->metrics_snapshot();
  const Clock::time_point window = Clock::now();

  const auto reader = [&] {
    while (!stop.load()) {
      Request r;
      r.run = next_run.fetch_add(1);
      r.traced = args.trace && r.run % 2 == 1;
      FirstAccept first;
      oms::serve::SessionConfig c = session_config(r.traced);
      c.on_accept = [&first](const oms::core::Psm&) {
        std::call_once(first.once, [&first] { first.at = Clock::now(); });
      };
      const Clock::time_point start = Clock::now();
      try {
        auto session = server->open(manifest, std::move(c));
        r.open_s = seconds_since(start);
        const Clock::time_point t1 = Clock::now();
        const std::size_t admitted = session->submit_batch(run_queries(r.run));
        r.submit_s = seconds_since(t1);
        const Clock::time_point t2 = Clock::now();
        const oms::core::PipelineResult result = session->close();
        r.close_s = seconds_since(t2);
        r.latency_s = seconds_since(start);
        r.ok = admitted == spec.run_size;
        r.generation = session->generation();
        r.digest = digest(result);
        const oms::serve::SessionStats st = session->stats();
        r.cache_hit = st.library_cache_hit;
        r.backend_hit = st.backend_shared;
        if (!result.accepted.empty()) {
          r.ttfp_s = std::chrono::duration<double>(first.at - start).count();
        }
      } catch (const std::exception& e) {
        std::printf("request %zu failed: %s\n", r.run, e.what());
      }
      const std::lock_guard lock(mutex);
      requests.push_back(r);
    }
  };

  const auto writer = [&] {
    for (std::size_t i = 0; i < appends; ++i) {
      std::this_thread::sleep_until(
          window + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(spec.cadence_s *
                                                     (i + 1))));
      const std::vector<oms::ms::Spectrum> batch(
          wl.references.begin() + spec.base_refs + i * spec.batch,
          wl.references.begin() + spec.base_refs + (i + 1) * spec.batch);
      bool ok = true;
      try {
        const Clock::time_point ta = Clock::now();
        const oms::index::BuildStats a = builder.append(batch, manifest);
        const double sa = seconds_since(ta);
        const oms::index::Manifest m = keeper.keep_newest();
        const Clock::time_point tc = Clock::now();
        const std::uint64_t errors = server->maintainer().stats().errors;
        const std::size_t compacted = server->maintainer().run_once();
        const double sc = seconds_since(tc);
        ok = server->maintainer().stats().errors == errors;
        const std::lock_guard lock(mutex);
        append_s.push_back(sa);
        append_rate.push_back(static_cast<double>(a.entries) / sa);
        segments_max = std::max(segments_max, m.segments.size());
        batches_of[m.combined_hash()] = i + 1;
        if (compacted > 0) {
          compact_s.push_back(sc);
          batches_of[oms::index::Manifest::load(manifest).combined_hash()] =
              i + 1;
          report.op(true);
        }
      } catch (const std::exception& e) {
        std::printf("append %zu failed: %s\n", i, e.what());
        ok = false;
      }
      const std::lock_guard lock(mutex);
      report.op(ok);
    }
  };

  std::vector<std::thread> threads;
  threads.emplace_back(writer);
  for (std::size_t i = 0; i < kReaders; ++i) threads.emplace_back(reader);
  threads.front().join();  // the writer ends after its last append
  const double left = args.seconds - seconds_since(window);
  if (left > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(left));
  }
  stop.store(true);
  for (std::size_t i = 1; i < threads.size(); ++i) threads[i].join();
  const double window_s = seconds_since(window);
  const double cpu_s = cpu_seconds() - cpu0;
  const double faults = page_faults() - faults0;
  const double encode_frac =
      encode_share(server->metrics_snapshot().since(metrics0));
  const std::size_t threads_peak = sampler ? sampler->threads_peak() : 0;
  const double waiting_max = sampler ? sampler->extra_peak() : 0.0;
  sampler.reset();
  const double rss_mb = peak_rss_mb();

  std::vector<double> latency;
  std::vector<double> traced_latency;
  std::vector<double> ttfp;
  std::vector<double> open_s;
  std::vector<double> submit_s;
  std::vector<double> close_s;
  double resolved = 0.0;
  std::size_t cache_hits = 0;
  std::size_t backend_hits = 0;
  for (const Request& r : requests) {
    report.op(r.ok);
    if (!r.ok) continue;
    resolved += static_cast<double>(spec.run_size);
    (r.traced ? traced_latency : latency).push_back(r.latency_s);
    if (r.traced) continue;
    if (r.ttfp_s >= 0) ttfp.push_back(r.ttfp_s);
    open_s.push_back(r.open_s);
    submit_s.push_back(r.submit_s);
    close_s.push_back(r.close_s);
    cache_hits += r.cache_hit ? 1 : 0;
    backend_hits += r.backend_hit ? 1 : 0;
  }
  const auto n_req = static_cast<double>(latency.size());
  report.set("qps", resolved / window_s);
  report.set("peak_rss_mb", rss_mb);
  report.set("request_p50_s", median(latency));
  report.set("request_p95_s", quantile(latency, 0.95));
  report.set("ttfp_p50_s", median(ttfp));
  report.set("append_spectra_per_s", median(append_rate));
  report.set("compact_s", median(compact_s));
  std::printf("requests: %zu untraced, %zu traced in %.2f s; %zu appends, "
              "%zu compactions, up to %zu segments\n",
              latency.size(), traced_latency.size(), window_s,
              append_s.size(), compact_s.size(), segments_max);

  // Output checks: every leased generation is one the writer published,
  // and sampled requests equal a solo run over a one-shot rebuild.
  for (const Request& r : requests) {
    if (r.ok && !batches_of.contains(r.generation)) {
      report.check(false, "request leased an unpublished generation");
    }
  }
  std::size_t check_no = 0;
  for (const Request* r : sample_requests(requests, batches_of, kChecks)) {
    const std::size_t k = batches_of.at(r->generation);
    const fs::path into =
        fs::path(args.workdir) / ("check-" + std::to_string(check_no++));
    const std::string lib_path = keeper.one_shot(cfg, k, into);
    oms::core::Pipeline solo(cfg);
    solo.set_library(std::make_shared<const oms::index::SegmentedLibrary>(
        oms::index::SegmentedLibrary::open(lib_path)));
    const auto q = run_queries(r->run);
    const oms::core::PipelineResult want =
        solo.run(std::vector<oms::ms::Spectrum>(q.begin(), q.end()));
    std::printf("check: request %zu (base + %zu batches) %s\n", r->run, k,
                digest(want) == r->digest ? "matches its solo run"
                                          : "DIFFERS from its solo run");
    report.check(digest(want) == r->digest,
                 "session result equals a solo run over its generation");
  }

  // Identifications over the final generation: the whole query pool
  // through a solo pipeline — also the pass the traced replay mirrors.
  Clock::time_point t0 = Clock::now();
  auto final_lib = std::make_shared<const oms::index::SegmentedLibrary>(
      oms::index::SegmentedLibrary::open(manifest));
  const double lib_open_s = seconds_since(t0);
  oms::core::Pipeline final_pipeline(cfg);
  t0 = Clock::now();
  final_pipeline.set_library(final_lib);
  const double set_library_s = seconds_since(t0);
  const oms::core::BackendStats before = final_pipeline.backend_stats();
  t0 = Clock::now();
  const oms::core::PipelineResult final_result = final_pipeline.run(wl.queries);
  const double final_wall_s = seconds_since(t0);
  const oms::core::BackendStats final_backend =
      final_pipeline.backend_stats().since(before);
  report.op(true);
  report.check(!final_result.accepted.empty(), "identifications at 1% FDR");
  report.set("ids_1pct", static_cast<double>(final_result.accepted.size()));
  std::printf("final generation: %zu entries in %zu segments; %zu queries, "
              "%zu accepted; digest %016" PRIx64 "; backend %s, kernel '%s'\n",
              final_lib->size(), final_lib->segment_count(), wl.queries.size(),
              final_result.accepted.size(), digest(final_result),
              final_backend.backend.c_str(), final_backend.kernel.c_str());

  if (!args.trace) return;
  std::printf(
      "traced requests: p50 %.4f s vs untraced %.4f s (%.0f requests)\n",
      median(traced_latency), median(latency), n_req);
  report.set("trace.overhead_frac",
             median(traced_latency) / median(latency) - 1.0);
  report.set("engine.encode_share", encode_frac);
  const ReplayResult r = replay(final_pipeline, wl.queries, 64);
  report_replay(r, digest(final_result), final_wall_s, final_backend,
                cfg.encoder.dim, report);
  report.set("index.build_s", median(build_s));
  report.set("index.file_mb",
             static_cast<double>(built.file_bytes) / 1048576.0);
  report.set("index.open_s", lib_open_s);
  report.set("index.set_library_s", set_library_s);
  report.set("index.append_s", median(append_s));
  report.set("index.compact_s", median(compact_s));
  report.set("index.segments_max", static_cast<double>(segments_max));
  report.set("serve.open_s", median(open_s));
  report.set("serve.submit_s", median(submit_s));
  report.set("serve.close_s", median(close_s));
  report.set("serve.cache_hit_ratio", static_cast<double>(cache_hits) / n_req);
  report.set("serve.backend_hit_ratio",
             static_cast<double>(backend_hits) / n_req);
  report.set("serve.sched_waiting_max", waiting_max);
  report.set("serve.compactions",
             static_cast<double>(server->maintainer().stats().compactions));
  report.set("proc.cpu_s", cpu_s);
  report.set("proc.cpu_util",
             cpu_s / (window_s * std::thread::hardware_concurrency()));
  report.set("proc.threads_peak", static_cast<double>(threads_peak));
  report.set("proc.page_faults", faults);
}

}  // namespace perfbench
