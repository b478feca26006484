// Golden (fault-free) reference runs and their per-(workload, config) cache.
// Every faulty run is classified by diffing against the golden run of the
// same workload; the cache ensures each campaign — and repeated campaigns in
// one process, e.g. the throughput benchmark — simulates the baseline once.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "campaign/workload.hpp"
#include "isa/program.hpp"

namespace rse::campaign {

struct GoldenRun {
  isa::Program program;  // assembled once, shared read-only by all runs
  /// The program's static analysis under the setup (os::load_analysis),
  /// computed once with the golden run and handed to every load of a
  /// campaign; null unless static_cfc or static_ddt is set.  Faults are
  /// applied only after load, so every run shares it unchanged.
  std::shared_ptr<const analysis::AnalysisResult> analysis;
  std::string output;
  int exit_code = 0;
  Cycle cycles = 0;
  u64 instructions = 0;
  // Baseline detector activity (normally all zero; a workload whose golden
  // run trips a detector would misclassify every faulty run as detected).
  u64 icm_mismatches = 0;
  u64 cfc_violations = 0;
  u64 selfcheck_trips = 0;
  u64 os_recoveries = 0;
  u64 ddt_footprint_violations = 0;
  u32 ioq_slots = 16;  // RUU/IOQ size, bounds kConfigBit slot sampling
  /// DME baseline (--dme campaigns; set by the runner on its local copy, not
  /// by the cache): whether the *fault-free* variant-A trace already diverges
  /// from the reference variant (layout-dependent timing, e.g. sys_clock),
  /// and where.  Faulty runs classify as detected_dme only relative to this.
  u64 dme_divergences = 0;
  u64 dme_first_divergence = ~u64{0};
};

/// Assemble and simulate the fault-free baseline for a workload setup.
GoldenRun simulate_golden(const WorkloadSetup& setup);

/// Fault-free baseline through the exec/ fast engine: identical output,
/// exit code, and instruction count, but `cycles` is virtual time and the
/// detector baselines are zero by construction (no framework activity in
/// fast mode).  Campaign classification keeps using the cycle-accurate
/// golden — injection-plan cycles, hang budgets, and digests depend on real
/// golden cycles; the fast baseline serves perfbench's fast-sim workload and
/// tests (docs/execution.md).  Falls back to cycle-accurate execution
/// mid-run when the workload leaves fast mode's envelope.
GoldenRun simulate_golden_fast(const WorkloadSetup& setup);

/// Thread-safe cache of cycle-accurate golden runs keyed by the whole
/// workload setup (name, source, every machine and OS config field,
/// host-enabled modules): two setups share a golden run only if they are
/// equal.
class GoldenCache {
 public:
  /// Fetch the golden run, simulating it on first use.
  std::shared_ptr<const GoldenRun> get(const WorkloadSetup& setup);

  u64 hits() const { return hits_; }
  u64 misses() const { return misses_; }

 private:
  struct Entry {
    WorkloadSetup setup;
    std::shared_ptr<const GoldenRun> golden;
  };

  std::mutex mu_;
  std::vector<Entry> runs_;
  u64 hits_ = 0;
  u64 misses_ = 0;
};

}  // namespace rse::campaign
