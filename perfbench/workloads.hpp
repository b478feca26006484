// The four benchmark workloads and the standalone layer probes the traced
// pass runs on their inputs.  Every timing is host time taken from outside
// the simulator's public functions; every count read from a stats()
// accessor is simulated and must repeat exactly.
#pragma once

#include <string>

#include "bench.hpp"
#include "campaign/workload.hpp"
#include "isa/program.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_dir = ".bench_build/spans";
};

/// Campaign worker threads: the host's core count, capped at 4.
unsigned job_count();

/// kmeans-ff, server-fork and calls-static.  Returns false on an unknown
/// workload name.
bool run_campaign_workload(const Options& options, Sheet& sheet);

/// fast-sim: fault-free kmeans-large through the fast engine, back to back
/// on job_count() callers.
void run_fast_sim(const Options& options, Sheet& sheet);

/// Write the tracer's spans to <spans_dir>/<workload>-seed<N>.jsonl.
void write_spans(const Options& options, const Tracer& tracer, Sheet& sheet);

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// A fresh machine and guest with `program` loaded and the setup's modules
/// enabled, as every golden and faulty run builds them.
struct LoadedGuest {
  rse::os::Machine machine;
  rse::os::GuestOs guest;

  LoadedGuest(const rse::campaign::WorkloadSetup& setup, const rse::isa::Program& program,
              rse::Cycle run_limit);
};

// ---- layer probes (probes.cpp) ----

/// isa.assemble_ms, analysis.analyze_ms (0 unless the workload's load runs
/// the analyzer) and os.load_ms.
void probe_load_path(const rse::campaign::WorkloadSetup& setup, Sheet& sheet);

/// A fault-free GuestOs::step loop: os.step_ns_per_cycle/instr plus every
/// simulated counter (cpu.*, mem.*, rse.*, modules.*, os.context_switches,
/// os.syscalls).  Repeats the loop and fails the sheet if any counter
/// differs between repeats.
void probe_step(const rse::campaign::WorkloadSetup& setup, Sheet& sheet);

/// FastSession::run_until alone on a fresh load (relaxed mode, as rse_run
/// --fast): exec.fast_mips, exec.block_decodes, exec.block_lookups.  With
/// `superblock_ab`, also interleaves superblocks on and off:
/// exec.superblock_{on,off}_mips and exec.superblock_gain.
void probe_fast_exec(const rse::campaign::WorkloadSetup& setup, bool superblock_ab,
                     Sheet& sheet);

}  // namespace perfbench
