// oms_bench — one benchmark for the OMS search stack.
//
//   oms_bench --workload <oms-rram|std-ideal|serve-grow> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke 1] [--workdir <dir>]
//             [--commit <id>]
//
// Prints every metric by name and unit, a META line with the run's
// metadata, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Exits non-zero without that line when the
// run cannot complete.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "bench.hpp"
#include "hd/kernels.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics, reported by every workload.
constexpr MetricDef kEndToEnd[] = {
    {"qps", "1/s"},
    {"setup_s", "s"},
    {"build_spectra_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"ids_1pct", "count"},
    {"request_p50_s", "s"},
    {"request_p95_s", "s"},
    {"ttfp_p50_s", "s"},
    {"append_spectra_per_s", "1/s"},
    {"compact_s", "s"},
    {"success_frac", "frac"},
};

// Per-layer metrics of the traced run (0 where a workload has no such
// layer, e.g. serve.* offline).
constexpr MetricDef kPerLayer[] = {
    {"replay.digest_match", "bool"},
    {"trace.overhead_frac", "frac"},
    {"ms.preprocess_s", "s"},
    {"ms.dropped", "count"},
    {"hd.encode_s", "s"},
    {"hd.encode_us_per_query", "us"},
    {"hd.id_rows", "count"},
    {"hd.id_bank_mb", "MB"},
    {"search.batch_s", "s"},
    {"search.pairs", "count"},
    {"search.ns_per_pair", "ns"},
    {"search.ref_gb_computed", "GB"},
    {"backend.phases", "count"},
    {"backend.shard_entries", "count"},
    {"backend.query_blocks", "count"},
    {"backend.extent_count", "count"},
    {"backend.kernel", "tier"},
    {"fdr.batch_s", "s"},
    {"fdr.stream_s", "s"},
    {"fdr.first_release_frac", "frac"},
    {"engine.wall_s", "s"},
    {"engine.replay_s", "s"},
    {"engine.parallel_speedup", "x"},
    {"engine.encode_share", "frac"},
    {"index.build_s", "s"},
    {"index.file_mb", "MB"},
    {"index.open_s", "s"},
    {"index.set_library_s", "s"},
    {"index.append_s", "s"},
    {"index.compact_s", "s"},
    {"index.segments_max", "count"},
    {"serve.open_s", "s"},
    {"serve.submit_s", "s"},
    {"serve.close_s", "s"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.backend_hit_ratio", "ratio"},
    {"serve.sched_waiting_max", "count"},
    {"serve.compactions", "count"},
    {"proc.cpu_s", "s"},
    {"proc.cpu_util", "frac"},
    {"proc.threads_peak", "count"},
    {"proc.page_faults", "count"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "oms_bench: %s\nusage: oms_bench --workload "
               "<oms-rram|std-ideal|serve-grow> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke 1] [--workdir <dir>] [--commit <id>]\n",
               why.c_str());
  std::exit(2);
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

template <std::size_t N>
void print_metrics(const char* kind, const MetricDef (&defs)[N],
                   const perfbench::Report& report) {
  for (const MetricDef& d : defs) {
    std::printf("%s %-26s %16.6g %s\n", kind, d.name, report.values.at(d.name),
                d.unit);
  }
}

template <std::size_t N>
std::string json_metrics(const MetricDef (&defs)[N],
                         const perfbench::Report& report) {
  std::string out = "{";
  for (const MetricDef& d : defs) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"value\": %.17g, \"unit\": \"%s\"}",
                  report.values.at(d.name), d.unit);
    if (out.size() > 1) out += ", ";
    out += '"';
    out += d.name;
    out += "\": {";
    out += buf;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string commit = "unknown";
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value) != 0;
        trace_given = true;
      } else if (key == "--smoke") {
        args.smoke = std::stoi(value) != 0;
      } else if (key == "--workdir") {
        args.workdir = value;
      } else if (key == "--commit") {
        commit = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (args.workload != "oms-rram" && args.workload != "std-ideal" &&
      args.workload != "serve-grow") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!trace_given || !(args.seconds > 0)) {
    usage("--trace and --seconds > 0 are required");
  }

  const std::filesystem::path base =
      args.workdir.empty() ? std::filesystem::path(".bench_build/work")
                           : std::filesystem::path(args.workdir);
  const std::filesystem::path workdir =
      base / (args.workload + "-" + std::to_string(::getpid()));
  args.workdir = workdir.string();

  perfbench::Report report;
  try {
    std::filesystem::create_directories(workdir);
    std::printf("META {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"smoke\": %d, \"commit\": \"%s\", "
                "\"compiler\": \"%s\", \"nproc\": %u, "
                "\"kernel_tier\": \"%s\"}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, args.smoke ? 1 : 0,
                json_escape(commit).c_str(), json_escape(__VERSION__).c_str(),
                std::thread::hardware_concurrency(),
                std::string(oms::hd::kernels::tier_name(
                                oms::hd::kernels::active_tier()))
                    .c_str());
    std::fflush(stdout);
    if (args.workload == "serve-grow") {
      perfbench::run_serve_grow(args, report);
    } else {
      perfbench::run_offline(args, report);
    }
    report.set("success_frac",
               1.0 - static_cast<double>(report.failed) /
                         static_cast<double>(report.attempted));
    print_metrics("e2e", kEndToEnd, report);
    if (args.trace) print_metrics("layer", kPerLayer, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "oms_bench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    std::error_code ignored;
    std::filesystem::remove_all(workdir, ignored);
    return 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(workdir, ignored);

  const std::string metrics = args.trace ? json_metrics(kPerLayer, report)
                                         : json_metrics(kEndToEnd, report);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed, metrics.c_str());
  return 0;
}
