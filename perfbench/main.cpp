// The repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir DIR]
//
// Workloads: kmeans-ff, server-fork, calls-static, fast-sim (README.md says
// why each exists).  --trace 0 measures the end-to-end metrics untraced;
// --trace 1 runs the traced pass and prints the per-layer metrics, writing
// its spans to DIR/<workload>-seed<N>.jsonl.  The last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.  Exit code 0
// means the result line was printed, whatever it says; 2 is a usage error.
#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"run_cpu_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"campaign.runs_per_s", "1/s"},
    {"campaign.golden_s", "s"},
    {"campaign.plan_ms", "ms"},
    {"campaign.run_p50_ms", "ms"},
    {"campaign.run_tail_ms", "ms"},
    {"campaign.run_tail_pct", "pct"},
    {"campaign.classic_run_p50_ms", "ms"},
    {"campaign.classic_run_tail_ms", "ms"},
    {"campaign.ff_run_p50_ms", "ms"},
    {"campaign.ff_run_tail_ms", "ms"},
    {"campaign.fork_run_p50_ms", "ms"},
    {"campaign.fork_run_tail_ms", "ms"},
    {"campaign.ff_fast_share", "ratio"},
    {"campaign.ff_fast", "count"},
    {"campaign.ff_fallback_target", "count"},
    {"campaign.ff_fallback_unmapped", "count"},
    {"campaign.ff_fallback_conflict", "count"},
    {"campaign.ff_fallback_checked", "count"},
    {"campaign.ff_fallback_syscall", "count"},
    {"campaign.ff_fallback_suspend", "count"},
    {"campaign.ff_fallback_illegal", "count"},
    {"campaign.ff_fallback_other", "count"},
    {"campaign.parallel_efficiency", "ratio"},
    {"campaign.aggregate_ms", "ms"},
    {"campaign.unreported_s", "s"},
    {"campaign.untraced_wall_s", "s"},
    {"campaign.traced_wall_s", "s"},
    {"campaign.trace_overhead", "ratio"},
    {"campaign.gate_runs", "count"},
    {"campaign.gate_mismatches", "count"},
    {"campaign.runs", "count"},
    {"campaign.coverage", "ratio"},
    {"campaign.sdc_rate", "ratio"},
    {"campaign.fast_golden_mips", "MIPS"},
    {"campaign.fast_golden_p50_ms", "ms"},
    {"campaign.fast_golden_tail_ms", "ms"},
    {"analysis.analyze_ms", "ms"},
    {"isa.assemble_ms", "ms"},
    {"os.load_ms", "ms"},
    {"os.step_ns_per_cycle", "ns"},
    {"os.step_ns_per_instr", "ns"},
    {"os.snapshot_chain_s", "s"},
    {"os.snapshot_capture_ms", "ms"},
    {"os.snapshot_restore_ms", "ms"},
    {"os.snapshot_kb", "KB"},
    {"os.context_switches", "count"},
    {"os.syscalls", "count"},
    {"exec.fast_mips", "MIPS"},
    {"exec.ff_prefix_ms", "ms"},
    {"exec.map_boundaries_s", "s"},
    {"exec.block_decodes", "count"},
    {"exec.block_lookups", "count"},
    {"exec.superblock_on_mips", "MIPS"},
    {"exec.superblock_off_mips", "MIPS"},
    {"exec.superblock_gain", "ratio"},
    {"cpu.cycles", "cycles"},
    {"cpu.instructions", "count"},
    {"cpu.ipc", "ratio"},
    {"cpu.squashed", "count"},
    {"cpu.mispredicts", "count"},
    {"mem.il1_miss_rate", "ratio"},
    {"mem.dl1_miss_rate", "ratio"},
    {"mem.bus_busy_cycles", "cycles"},
    {"mem.bus_wait_cycles", "cycles"},
    {"rse.events_per_cycle", "ratio"},
    {"rse.mau_requests", "count"},
    {"modules.icm_checks", "count"},
    {"modules.cfc_transitions", "count"},
    {"modules.ddt_tracked_accesses", "count"},
    {"modules.ddt_footprint_checks", "count"},
};

unsigned job_count() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::clamp(cores, 1u, 4u);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void write_spans(const Options& options, const Tracer& tracer, Sheet& sheet) {
  std::error_code ec;
  std::filesystem::create_directories(options.spans_dir, ec);
  const std::string path = options.spans_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".jsonl";
  if (ec || !tracer.write_jsonl(path)) {
    sheet.note("warning: could not write spans to " + path);
  } else {
    sheet.note("spans: " + std::to_string(tracer.spans().size()) + " written to " + path);
  }
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload kmeans-ff|server-fork|calls-static|fast-sim"
               " --seed N --seconds S --trace 0|1 [--spans-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--spans-dir") {
        options.spans_dir = value;
      } else {
        return usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  perfbench::Sheet sheet;
  try {
    if (options.workload == "fast-sim") {
      perfbench::run_fast_sim(options, sheet);
    } else if (!perfbench::run_campaign_workload(options, sheet)) {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& e) {
    sheet.failed = std::max<std::uint64_t>(sheet.failed, 1);
    sheet.attempted = std::max(sheet.attempted, sheet.failed);
    sheet.fail(std::string("uncaught exception: ") + e.what());
  }
  sheet.print(options.trace ? perfbench::kPerLayer : perfbench::kEndToEnd);
  return 0;
}
