// Parallel fault-injection campaign engine.
//
// The runner fans independent Machine simulations out across std::thread
// workers.  Work distribution is a single atomic run-index counter and each
// run writes into its own preallocated result slot, so the hot path takes no
// locks and the aggregate report is identical for any --jobs value: every
// simulation is hermetic (its own Machine/GuestOs), its fault comes from the
// deterministic InjectionPlan, and aggregation happens in index order after
// the workers join.
//
// A hang watchdog bounds every faulty run at hang_factor x the golden run's
// cycle count; runs that exceed it classify as kHang.
#pragma once

#include <array>
#include <atomic>
#include <functional>

#include "campaign/golden.hpp"
#include "campaign/injection.hpp"
#include "campaign/report.hpp"
#include "exec/fast_forward.hpp"
#include "os/snapshot.hpp"
#include "rse/dme.hpp"

namespace rse::campaign {

/// One whole-machine snapshot per injection-cycle bucket, in increasing `at`
/// order, captured by a single from-reset cycle-accurate pass: restoring any
/// snapshot reproduces the classic run's machine state at that cycle
/// precisely, so runs of every fault target may fork from it.  `exact` is
/// always true; it stays only because perfbench/ reads it.
struct SnapshotChain {
  std::vector<os::MachineSnapshot> snaps;
  bool exact = true;
};

/// Fallback accounting for the fast-forward path, aggregated over one run()
/// call (reset at campaign start).  A fallback is a run offered a fast-engine
/// prefix that did not take it: it forks from the latest chain snapshot at
/// or before its injection cycle, or starts from reset when the campaign has
/// no chain (run_one_fast_forward never has one).  Purely observational —
/// the classified outcomes, cycles and the deterministic digest never depend
/// on which path a run took — but it answers "why wasn't this campaign
/// faster?" precisely.
struct FastForwardStats {
  u64 fast = 0;               // prefixes that ran on the fast engine
  u64 fallback_target = 0;    // ineligible fault target (config faults)
  u64 fallback_unmapped = 0;  // no boundary: golden finished before the cycle,
                              // the cycle is at or past the hang budget, or a
                              // CI-refinement index past the mapped plan
  u64 fallback_conflict = 0;  // memory-word fault overlapped in-flight state
  u64 fallback_checked = 0;   // instr-word fault on an ICM-checked instruction
  u64 fallback_syscall = 0;   // syscall outside the strict whitelist in prefix
  u64 fallback_suspend = 0;   // unused, always 0; stays because perfbench/ reads it
  u64 fallback_illegal = 0;   // illegal word or host trap in the prefix
  u64 fallback_other = 0;     // early exit / boundary position mismatch

  u64 fallbacks() const {
    return fallback_target + fallback_unmapped + fallback_conflict + fallback_checked +
           fallback_syscall + fallback_illegal + fallback_other;
  }
};

/// Call `run(index)` once for every index in [lo, hi) on up to `jobs` worker
/// threads, the calling thread among them, handing indices out through one
/// atomic counter.  If the host refuses a thread, the threads already
/// working finish the range.  Every index runs even after a call throws;
/// after the workers join, the exception of the lowest index that threw is
/// rethrown as SimError("run <index>: <what>"), the same error for any
/// `jobs`.
void for_each_run(u32 lo, u32 hi, u32 jobs, const std::function<void(u32)>& run);

/// The number of records the core has delivered to its commit observer
/// since reset.  Every counter it reads is in a snapshot, so on a restored
/// machine it is what a from-reset run delivers before the snapshot's
/// cycle: where a forked DME run's trace checker starts.
u64 commit_records(os::Machine& machine, const os::GuestOs& guest);

/// How many plan indices a campaign of `spec` may execute: spec.runs, or
/// under CI refinement its cap (ci_max_runs; by default 4 x runs, at most
/// kMaxRuns).
u32 max_runs(const CampaignSpec& spec);

class CampaignRunner {
 public:
  /// `cache` lets several campaigns share golden runs; pass nullptr to use a
  /// runner-private cache.
  explicit CampaignRunner(GoldenCache* cache = nullptr);

  /// Execute a whole campaign: golden run (cached), plan, parallel fan-out,
  /// classification, aggregation.  A run's fault-free prefix comes from the
  /// first of these that applies:
  ///  - spec.fast_forward, a clean golden (and DME) baseline, and a run the
  ///    fast engine can carry to its injection cycle: the fast engine (as
  ///    run_one_fast_forward);
  ///  - a DME baseline that does not diverge (every non-DME campaign): the
  ///    latest snapshot of build_snapshot_chain's chain at or before the
  ///    injection cycle (checkpoint-fork, as run_one_forked).  A
  ///    fast-forward campaign builds the chain only when some run of its
  ///    range falls back before it starts, or CI refinement may add runs;
  ///  - reset.
  /// The classified outcome never depends on the prefix, and a forked run
  /// reproduces the from-reset run's cycles as well (docs/campaigns.md).
  CampaignReport run(const CampaignSpec& spec);

  /// run() with every run simulated from reset: the same validation, golden
  /// run, plan, DME baseline, sharding and CI refinement.  The reference
  /// tests and benches check and time the fork and fast-forward prefixes
  /// against.
  CampaignReport run_from_reset(const CampaignSpec& spec);

  /// Reproduce a single run in isolation (tests, debugging a campaign hit)
  /// with the default hang budget.  A non-null `dme_reference` streams the
  /// run's canonical committed-instruction trace (rse/dme.hpp) against the
  /// reference variant and fills RunEvidence::dme_divergences; the caller is
  /// responsible for recording the reference and for a golden whose DME
  /// baseline fields reflect the fault-free comparison.
  RunResult run_one(const WorkloadSetup& setup, const GoldenRun& golden,
                    const InjectionRecord& record,
                    const dme::CanonicalTrace* dme_reference = nullptr) const;

  /// The three entry points below share one pipeline: boot, a prefix (from
  /// reset, a restored snapshot, or a fast-engine prefix), the fault, the
  /// run to the hang budget, classification.  Which prefix a run gets never
  /// changes its classified outcome: that is always the from-reset one
  /// (docs/execution.md).
  RunResult run_one_with_budget(const WorkloadSetup& setup, const GoldenRun& golden,
                                const InjectionRecord& record, Cycle budget,
                                const dme::CanonicalTrace* dme_reference = nullptr) const;

  /// Fast-forward: the fault-free prefix runs through the exec/ fast engine
  /// and is transplanted into the cycle-accurate core at the injection
  /// cycle.  Register-bit records and instruction-/data-word records whose
  /// boundary reports no in-flight overlap take the fast prefix.
  /// Everything else (config faults, cycles the fault-free run never
  /// reaches or the hang budget cuts off, in-flight conflicts, fast-mode
  /// bails) starts from reset here; run() forks those from its chain
  /// instead, with the same result.  The `schedule` parameter is unused; it
  /// stays only because perfbench/ passes it.
  RunResult run_one_fast_forward(const WorkloadSetup& setup, const GoldenRun& golden,
                                 const InjectionRecord& record, Cycle budget,
                                 const exec::FastForwardController::BoundaryMap& boundaries,
                                 const exec::FastForwardController::SyscallSchedule* schedule =
                                     nullptr,
                                 const dme::CanonicalTrace* dme_reference = nullptr) const;

  /// Fast-forward fallback accounting for the most recent run() (or the
  /// run_one_fast_forward calls since then).  Not part of any digest.
  FastForwardStats fast_forward_stats() const;

  /// Runs of the most recent run() (or the run_one_forked calls since then)
  /// that restored a chain snapshot, fast-forward fallbacks included.  Not
  /// part of any digest.
  u64 forked_runs() const;

  /// Checkpoint-fork: restore the latest chain snapshot at or before the
  /// injection cycle, then step to it as a from-reset run would.  Records
  /// with no such snapshot start from reset.
  RunResult run_one_forked(const WorkloadSetup& setup, const GoldenRun& golden,
                           const InjectionRecord& record, Cycle budget,
                           const SnapshotChain& chain) const;

  /// Build the per-bucket snapshot chain for a spec: bucket boundaries are
  /// golden.cycles * b / snapshot_buckets, and one from-reset cycle-accurate
  /// pass captures them all.  Each capture steps past its boundary to the
  /// next quiescent cycle (os::MachineSnapshot::quiescent).  The fifth
  /// parameter is unused; it stays only because perfbench/ passes it.
  SnapshotChain build_snapshot_chain(const WorkloadSetup& setup, const GoldenRun& golden,
                                     const CampaignSpec& spec, Cycle budget,
                                     bool use_fast_forward) const;

  /// The workload setup every run of a spec simulates: the named workload
  /// with the spec's analysis knobs, the DDT enabled for static_ddt, and,
  /// for DME, layout randomization under dme_seed_a.  run() and --describe
  /// both start from it.
  static WorkloadSetup setup_for(const CampaignSpec& spec);

  /// The plan a spec expands to (exposed for tests and --describe).
  InjectionPlan plan_for(const CampaignSpec& spec, const GoldenRun& golden,
                         const WorkloadSetup& setup) const;

  GoldenCache& cache() { return *cache_; }

 private:
  struct Prefixes;  // what a run's prefix may start from (runner.cpp)
  struct Route;     // the prefix one run starts from, and why (runner.cpp)

  /// Why a run offered a fast-forward prefix did not take it (it forks, or
  /// starts from reset without a chain); kNoFallback when it took it, or
  /// was offered none.  Indexes ff_counts_, in FastForwardStats order (which
  /// keeps an always-zero suspend count).
  enum Fallback : u8 {
    kNoFallback,
    kTarget,
    kUnmapped,
    kConflict,
    kChecked,
    kSyscall,
    kIllegal,
    kOther,
    kNumFallbacks
  };

  CampaignReport run_campaign(const CampaignSpec& spec, bool from_reset);
  Cycle budget_for(const GoldenRun& golden, double hang_factor) const;
  bool apply_fault(os::Machine& machine, const InjectionRecord& record) const;
  static Route route(const GoldenRun& golden, const InjectionRecord& record, Cycle budget,
                     const Prefixes& prefixes);
  RunResult run_pipeline(const WorkloadSetup& setup, const GoldenRun& golden,
                         const InjectionRecord& record, Cycle budget, const Prefixes& prefixes,
                         const dme::CanonicalTrace* dme_reference) const;

  GoldenCache own_cache_;
  GoldenCache* cache_;

  // Runs offered a fast-forward prefix, by fallback, and runs restored from
  // a snapshot; workers increment concurrently with relaxed atomics.
  mutable std::array<std::atomic<u64>, kNumFallbacks> ff_counts_{};
  mutable std::atomic<u64> forked_{0};
};

}  // namespace rse::campaign
