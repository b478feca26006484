// Campaign result aggregation and export (stdout table, CSV, JSON).
//
// Everything in the report except the wall-clock fields is a deterministic
// function of (workload, campaign_seed, runs, targets) — identical no matter
// how many worker threads executed the campaign.  `deterministic_digest`
// serializes exactly that portion, so tests (and users) can compare
// campaigns across --jobs settings byte-for-byte.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "campaign/injection.hpp"
#include "campaign/outcome.hpp"

namespace rse::campaign {

struct RunResult {
  InjectionRecord record;
  Outcome outcome = Outcome::kMasked;
  bool fault_applied = false;  // false: workload finished before inject_cycle
  Cycle cycles = 0;            // faulty run length

  bool operator==(const RunResult&) const = default;
};

/// The largest snapshot chain a campaign may ask for.  The chain pass can
/// capture one snapshot per quiescent golden cycle, and a server snapshot is
/// about 443 KB, so the bound keeps a chain's memory in the 100 MB range.
inline constexpr u32 kMaxSnapshotBuckets = 256;

/// The largest campaign, planned or refined.  A campaign preallocates one
/// result per run, so an unbounded count exhausts memory before the first
/// run; no caller builds a larger one (perfbench clamps to the same bound).
inline constexpr u32 kMaxRuns = 1'000'000;

/// The most worker threads a campaign starts, --jobs 0 included: a host
/// refuses threads long before u32's range, and a refused one ends the process.
inline constexpr u32 kMaxJobs = 256;

struct CampaignSpec {
  std::string workload = "kmeans";
  u32 runs = 256;  // in [1, kMaxRuns]
  u64 seed = 1;
  u32 jobs = 1;  // in [0, kMaxJobs]; 0 = std::thread::hardware_concurrency()
  double hang_factor = 8.0;  // cycle budget = golden cycles x this
  /// Install the static CFC legal-successor table at load in the golden and
  /// every faulty run (OsConfig::static_cfc), from one analysis per campaign
  /// (GoldenRun::analysis).
  bool static_cfc = false;
  /// Install the static DDT page footprint the same way
  /// (OsConfig::static_ddt); implies enabling the DDT.
  bool static_ddt = false;
  /// Analyzer call model for static_cfc/static_ddt
  /// (OsConfig::footprint_summaries): interprocedural summaries (default)
  /// vs. the flat model.  Part of the golden-cache key and the
  /// deterministic digest — the two modes check different site sets.
  bool footprint_summaries = true;
  /// Context-sensitive footprint cloning depth (OsConfig::context_depth;
  /// effective only with footprint_summaries).  Part of the golden-cache
  /// key and the deterministic digest — each depth checks a different site
  /// set, so goldens must never leak across depths.  Depth 0 reproduces
  /// the context-insensitive digest bit-for-bit.
  u32 context_depth = 1;
  /// Field-sensitive strided-interval footprint domain (OsConfig::
  /// field_sensitive; effective only with static_ddt).  Part of the
  /// golden-cache key and the deterministic digest — residue page sets and
  /// dense hulls check different page sets, so goldens must never leak
  /// across the two domains.
  bool field_sensitive = true;
  /// Fast-forward the fault-free prefix of eligible runs through the exec/
  /// fast engine and transplant into the cycle-accurate core at the
  /// injection cycle (docs/execution.md) instead of forking it.  Off by
  /// default.  Classified outcomes — and therefore the deterministic digest
  /// — are identical with and without it; only per-run cycle counts
  /// (timing, excluded from the digest) may differ.
  bool fast_forward = false;
  /// Unread by CampaignRunner::run, which forks every run it does not
  /// fast-forward; it stays only because perfbench/ sets and reads it.
  bool snapshot_fork = false;
  /// Checkpoint-fork's chain: one whole-machine snapshot
  /// (os::MachineSnapshot) per injection-cycle bucket, captured by one
  /// from-reset pass.  A forked run restores the latest one at or before
  /// its injection cycle and pays only the rest; classified outcomes,
  /// per-run cycle counts and the digest are byte-identical to from-reset
  /// runs.  Enters neither the digest nor the golden-cache key.
  u32 snapshot_buckets = 8;  // in [1, kMaxSnapshotBuckets]
  /// Divergent multi-version execution (rse/dme.hpp): the campaign variant
  /// runs with layout randomization under mlr seed `dme_seed_a`, and every
  /// run's canonical committed-instruction trace is diffed against a
  /// fault-free reference variant recorded once under `dme_seed_b`.  Adds
  /// the detected_dme outcome; enters the digest and (via the mutated
  /// setup) the golden-cache key.
  bool dme = false;
  u64 dme_seed_a = 1;
  u64 dme_seed_b = 2;
  /// Contiguous-shard execution for multi-process scale-out: this process
  /// runs plan indices [runs*shard_index/shard_count,
  /// runs*(shard_index+1)/shard_count).  shard_count == 1 = unsharded.
  /// Excluded from the digest and the golden-cache key — merging all shard
  /// reports reproduces the unsharded digest byte-for-byte.
  u32 shard_index = 0;
  u32 shard_count = 1;
  /// Stratified sequential refinement: while any outcome stratum's Wilson
  /// 95% interval still straddles this reporting threshold, append
  /// deterministic batches of extra runs (next plan indices) until every
  /// stratum resolves or ci_max_runs is reached.  0 = off.  Part of the
  /// deterministic digest (it changes the executed run set); incompatible
  /// with sharding.
  double ci_threshold = 0.0;
  u32 ci_batch = 0;     // runs per refinement round (0 = max(16, runs/2))
  u32 ci_max_runs = 0;  // total-run cap in [0, kMaxRuns] (0 = 4 * runs)
  /// Injection-cycle window as fractions of the golden run's cycle count,
  /// drawn inclusively.  The default [0, 1] reproduces the historical
  /// full-range plan bit-for-bit (see InjectionSpace::window_lo).  Part of
  /// the deterministic digest when non-default.
  double window_lo = 0.0;
  double window_hi = 1.0;
  std::vector<InjectTarget> targets = {
      InjectTarget::kRegisterBit, InjectTarget::kInstructionWord,
      InjectTarget::kDataWord, InjectTarget::kConfigBit};
};

/// Throws ConfigError unless every field of `spec` lies in its range.  A
/// campaign, its plan and a shard report's header are all checked here.
void validate(const CampaignSpec& spec);

struct CampaignReport {
  CampaignSpec spec;
  Cycle golden_cycles = 0;
  u64 golden_instructions = 0;

  std::array<u32, kNumOutcomes> by_outcome{};
  /// by_target_outcome[target][outcome]
  std::array<std::array<u32, kNumOutcomes>, kNumInjectTargets> by_target_outcome{};
  std::array<u32, kNumInjectTargets> by_target_runs{};
  u32 faults_applied = 0;

  std::vector<RunResult> results;  // run-index order, regardless of --jobs

  // non-deterministic (timing) portion
  double wall_seconds = 0;
  double runs_per_second = 0;

  u32 detected() const;
  u32 unmasked() const;  // runs whose fault had any architectural effect
  /// Detection coverage: detected / unmasked (0 when nothing was unmasked).
  double coverage() const;
  double sdc_rate() const;  // sdc / total runs
};

/// Build the aggregate report from per-run results (must be in index order).
CampaignReport aggregate(const CampaignSpec& spec, Cycle golden_cycles,
                         u64 golden_instructions, std::vector<RunResult> results,
                         double wall_seconds);

/// Human-readable summary (outcome histogram + per-module coverage table).
std::string summary_text(const CampaignReport& report);

/// The deterministic portion of the report as a canonical string.
std::string deterministic_digest(const CampaignReport& report);

std::string to_json(const CampaignReport& report);

/// One CSV row per run (plan fields + outcome); returns false on I/O error.
bool write_runs_csv(const CampaignReport& report, const std::string& path);

}  // namespace rse::campaign
