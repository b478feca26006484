// Campaign engine scaling: runs/sec of the same fixed from-reset campaign
// (CampaignRunner::run_from_reset) at increasing --jobs, against the
// --jobs 1 baseline.  Simulations are independent and embarrassingly
// parallel, so on an N-core host throughput should scale near-linearly until
// the worker count passes the core count.  The golden-run cache is shared
// across sweep points, so only the first campaign pays for the fault-free
// baseline.
//
// On top of the scaling sweep the bench proves the execution-mode
// optimizations end to end against from-reset campaigns and records the
// trajectory in BENCH_campaign.json:
//  - --fast-forward must reproduce the classic digest byte-for-byte;
//  - checkpoint-fork (CampaignRunner::run's default) must reproduce the
//    classic digest byte-for-byte AND deliver >= 2x end-to-end wall-clock
//    speedup on a register-fault campaign with a late injection window (the
//    regime the mode exists for: every from-reset run pays the whole
//    prefix, every forked run only the post-injection suffix);
//  - with --expect-ci, a sequential-refinement campaign must actually grow
//    the run set and leave no stratum's Wilson interval straddling the
//    threshold (unless the run cap was hit), jobs-invariantly.
//
//   bench_campaign_throughput [workload] [runs] [--smoke] [--expect-ci]
//                             [--json PATH]
#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/stats.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"

using namespace rse;

int main(int argc, char** argv) {
  campaign::CampaignSpec spec;
  bool smoke = false;
  bool expect_ci = false;
  std::string json_path = "BENCH_campaign.json";
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") smoke = true;
    else if (arg == "--expect-ci") expect_ci = true;
    else if (arg == "--json" && i + 1 < argc) json_path = argv[++i];
    else positional.push_back(arg);
  }
  spec.workload = !positional.empty() ? positional[0] : "loop";
  spec.runs = positional.size() > 1 ? static_cast<u32>(std::stoul(positional[1]))
                                    : (smoke ? 48u : 96u);
  spec.seed = 7;

  // Sweep at least {1, 2, 4} even on small hosts: oversubscribed workers are
  // harmless, and the digest comparison across job counts is the
  // determinism proof regardless of physical core count.
  const u32 hw = std::max(1u, std::thread::hardware_concurrency());
  const u32 top = std::max(hw, 4u);
  std::vector<u32> job_counts{1};
  for (u32 j = 2; j <= top; j *= 2) job_counts.push_back(j);
  if (job_counts.back() != top) job_counts.push_back(top);

  std::cout << "campaign throughput scaling: workload=" << spec.workload
            << " runs=" << spec.runs << " hardware threads=" << hw << "\n";

  campaign::GoldenCache cache;
  campaign::CampaignRunner runner(&cache);
  std::ostringstream json;
  json << "{\n  \"bench\": \"campaign_throughput\",\n  \"workload\": \"" << spec.workload
       << "\",\n  \"runs\": " << spec.runs << ",\n  \"jobs_sweep\": [\n";

  report::Table table({"jobs", "runs/sec", "wall s", "speedup", "digest match"});
  std::string baseline_digest;
  double baseline_rate = 0;
  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t p = 0; p < job_counts.size(); ++p) {
    const u32 jobs = job_counts[p];
    spec.jobs = jobs;
    const campaign::CampaignReport report = runner.run_from_reset(spec);
    const std::string digest = campaign::deterministic_digest(report);
    if (jobs == 1) {
      baseline_digest = digest;
      baseline_rate = report.runs_per_second;
    }
    const double speedup = baseline_rate > 0 ? report.runs_per_second / baseline_rate : 0;
    const bool match = digest == baseline_digest;
    table.row({std::to_string(jobs), report::fmt_fixed(report.runs_per_second, 1),
               report::fmt_fixed(report.wall_seconds, 2), report::fmt_fixed(speedup, 2),
               match ? "yes" : "NO"});
    csv_rows.push_back({std::to_string(jobs), report::fmt_fixed(report.runs_per_second, 3),
                        report::fmt_fixed(report.wall_seconds, 4),
                        report::fmt_fixed(speedup, 3), match ? "1" : "0"});
    json << "    {\"jobs\": " << jobs << ", \"runs_per_sec\": "
         << report::fmt_fixed(report.runs_per_second, 3) << ", \"wall_s\": "
         << report::fmt_fixed(report.wall_seconds, 4) << ", \"speedup\": "
         << report::fmt_fixed(speedup, 3) << ", \"digest_match\": "
         << (match ? "true" : "false") << "}" << (p + 1 < job_counts.size() ? "," : "")
         << "\n";
    if (!match) {
      std::cerr << "DETERMINISM VIOLATION at jobs=" << jobs << "\n";
      return 1;
    }
  }
  table.print();
  std::cout << "(golden cache: " << cache.misses() << " simulated, " << cache.hits()
            << " reused)\n";
  json << "  ],\n";

  // --fast-forward replays eligible fault-free prefixes through the exec/
  // fast engine (docs/execution.md); classification must not move at all, so
  // its digest has to match the classic jobs sweep byte-for-byte.
  spec.jobs = 4;
  spec.fast_forward = true;
  const std::string ff_digest = campaign::deterministic_digest(runner.run(spec));
  spec.fast_forward = false;
  if (ff_digest != baseline_digest) {
    std::cerr << "FAST-FORWARD DIGEST MISMATCH: --fast-forward changed campaign "
                 "classification\n";
    return 1;
  }
  std::cout << "--fast-forward digest identical to the classic campaign\n";

  // Checkpoint-fork on its home turf: register faults drawn from a late
  // injection window, so a from-reset run pays the whole prefix and a
  // forked run only the suffix.  The chain (built inside run(), counted in
  // its wall clock) is one extra from-reset pass amortized over every run.
  // Digest equality is the correctness proof; the 2x floor is the
  // acceptance bar for the mode being worth its snapshot bytes.
  {
    constexpr double kForkFloor = 2.0;
    campaign::CampaignSpec fork_spec;
    fork_spec.workload = "kmeans";
    fork_spec.runs = smoke ? 32 : 48;
    fork_spec.seed = 7;
    fork_spec.jobs = 4;
    fork_spec.targets = {campaign::InjectTarget::kRegisterBit};
    fork_spec.window_lo = 0.85;
    fork_spec.window_hi = 1.0;
    fork_spec.snapshot_buckets = 16;

    (void)runner.cache().get(campaign::make_workload(fork_spec.workload));  // warm golden
    const campaign::CampaignReport classic = runner.run_from_reset(fork_spec);
    const campaign::CampaignReport forked = runner.run(fork_spec);

    const bool match = campaign::deterministic_digest(classic) ==
                       campaign::deterministic_digest(forked);
    const double speedup =
        forked.wall_seconds > 0 ? classic.wall_seconds / forked.wall_seconds : 0;
    std::cout << "checkpoint-fork (kmeans, reg faults, window 0.85:1.0): classic "
              << report::fmt_fixed(classic.wall_seconds, 2) << "s, forked "
              << report::fmt_fixed(forked.wall_seconds, 2) << "s, speedup "
              << report::fmt_fixed(speedup, 2) << "x, digest "
              << (match ? "identical" : "MISMATCH") << "\n";
    json << "  \"checkpoint_fork\": {\"workload\": \"kmeans\", \"runs\": " << fork_spec.runs
         << ", \"window\": [0.85, 1.0], \"classic_wall_s\": "
         << report::fmt_fixed(classic.wall_seconds, 4) << ", \"forked_wall_s\": "
         << report::fmt_fixed(forked.wall_seconds, 4) << ", \"speedup\": "
         << report::fmt_fixed(speedup, 3) << ", \"floor\": " << kForkFloor
         << ", \"digest_match\": " << (match ? "true" : "false") << "},\n";
    if (!match) {
      std::cerr << "CHECKPOINT-FORK DIGEST MISMATCH: forking changed campaign "
                   "classification\n";
      return 1;
    }
    if (speedup < kForkFloor) {
      std::cerr << "checkpoint-fork speedup " << speedup << "x is below the " << kForkFloor
                << "x floor\n";
      return 1;
    }
  }

  // Memory-word fast-forward end to end: instruction-/data-word faults drawn
  // from a late window, so every classic run pays the whole prefix cycle-
  // accurately while a fast-forwarded run pays one shared instrumented
  // replay plus a fast-engine prefix per run.  Digest equality is the
  // correctness proof; the 1.5x floor is the acceptance bar for extending
  // eligibility beyond register bits.
  {
    constexpr double kMemFfFloor = 1.5;
    campaign::CampaignSpec mem_spec;
    mem_spec.workload = "kmeans";
    mem_spec.runs = smoke ? 32 : 48;
    mem_spec.seed = 7;
    mem_spec.jobs = 4;
    mem_spec.targets = {campaign::InjectTarget::kInstructionWord,
                        campaign::InjectTarget::kDataWord};
    mem_spec.window_lo = 0.85;
    mem_spec.window_hi = 1.0;

    const campaign::CampaignReport classic = runner.run_from_reset(mem_spec);
    mem_spec.fast_forward = true;
    const campaign::CampaignReport fast = runner.run(mem_spec);
    const campaign::FastForwardStats ff = runner.fast_forward_stats();

    const bool match = campaign::deterministic_digest(classic) ==
                       campaign::deterministic_digest(fast);
    const double speedup =
        fast.wall_seconds > 0 ? classic.wall_seconds / fast.wall_seconds : 0;
    std::cout << "memory-word fast-forward (kmeans, instr+data faults, window 0.85:1.0): "
              << "classic " << report::fmt_fixed(classic.wall_seconds, 2) << "s, fast "
              << report::fmt_fixed(fast.wall_seconds, 2) << "s, speedup "
              << report::fmt_fixed(speedup, 2) << "x, " << ff.fast << " fast / "
              << ff.fallbacks() << " fallback, digest "
              << (match ? "identical" : "MISMATCH") << "\n";
    json << "  \"fast_forward_memory\": {\"workload\": \"kmeans\", \"runs\": "
         << mem_spec.runs << ", \"window\": [0.85, 1.0], \"classic_wall_s\": "
         << report::fmt_fixed(classic.wall_seconds, 4) << ", \"fast_wall_s\": "
         << report::fmt_fixed(fast.wall_seconds, 4) << ", \"speedup\": "
         << report::fmt_fixed(speedup, 3) << ", \"floor\": " << kMemFfFloor
         << ", \"fast_runs\": " << ff.fast << ", \"fallback_runs\": " << ff.fallbacks()
         << ", \"digest_match\": " << (match ? "true" : "false") << "},\n";
    if (!match) {
      std::cerr << "MEMORY-WORD FAST-FORWARD DIGEST MISMATCH: --fast-forward changed "
                   "campaign classification on instr/data faults\n";
      return 1;
    }
    if (ff.fast == 0) {
      std::cerr << "memory-word fast-forward took zero fast paths — eligibility "
                   "has regressed\n";
      return 1;
    }
    if (speedup < kMemFfFloor) {
      std::cerr << "memory-word fast-forward speedup " << speedup << "x is below the "
                << kMemFfFloor << "x floor\n";
      return 1;
    }
  }

  // Sequential refinement: the refined campaign must grow the run set
  // deterministically and leave every stratum's interval clear of the
  // threshold (or prove it hit the cap), at any jobs count.
  if (expect_ci) {
    campaign::CampaignSpec ci_spec;
    ci_spec.workload = spec.workload;
    ci_spec.runs = 16;
    ci_spec.seed = 7;
    ci_spec.ci_threshold = 0.05;
    ci_spec.ci_batch = 16;
    ci_spec.ci_max_runs = smoke ? 64 : 128;
    ci_spec.jobs = 1;
    const campaign::CampaignReport refined = runner.run(ci_spec);
    ci_spec.jobs = 4;
    const campaign::CampaignReport refined4 = runner.run(ci_spec);
    const bool jobs_invariant = campaign::deterministic_digest(refined) ==
                                campaign::deterministic_digest(refined4);
    const u32 total = static_cast<u32>(refined.results.size());
    const bool grew = total > 16;
    const bool capped = total >= ci_spec.ci_max_runs;
    const bool resolved =
        campaign::strata_needing_refinement(refined.by_outcome, total, ci_spec.ci_threshold)
            .empty();
    std::cout << "ci refinement: 16 -> " << total << " runs, "
              << (resolved ? "all strata resolved" : capped ? "run cap hit" : "UNRESOLVED")
              << ", jobs-invariant " << (jobs_invariant ? "yes" : "NO") << "\n";
    json << "  \"ci_refinement\": {\"threshold\": 0.05, \"initial_runs\": 16, "
         << "\"refined_runs\": " << total << ", \"resolved\": "
         << (resolved ? "true" : "false") << ", \"capped\": " << (capped ? "true" : "false")
         << ", \"jobs_invariant\": " << (jobs_invariant ? "true" : "false") << "},\n";
    if (!grew || (!resolved && !capped) || !jobs_invariant) {
      std::cerr << "CI REFINEMENT FAILED: grew=" << grew << " resolved=" << resolved
                << " capped=" << capped << " jobs_invariant=" << jobs_invariant << "\n";
      return 1;
    }
  }

  json << "  \"digest_match\": true\n}\n";
  std::ofstream out(json_path);
  out << json.str();
  if (!out) {
    std::cerr << "failed to write " << json_path << "\n";
    return 1;
  }
  std::cout << "wrote " << json_path << "\n";

  if (auto dir = report::csv_export_dir()) {
    report::CsvWriter csv(*dir + "/campaign_throughput.csv",
                          {"jobs", "runs_per_sec", "wall_s", "speedup", "digest_match"});
    for (auto& row : csv_rows) csv.row(std::move(row));
    csv.flush();
  }

  if (smoke) return 0;  // the footprint-mode sweep below is the heavy part

  // Same determinism proof with the static DDT footprint in the loop: the
  // analyzer runs at load in every worker, so the digest must still be a
  // pure function of (spec, seed) — never of scheduling.  The analyzer
  // modes swept cross {flat, summaries at depth 0, summaries at depth 1}
  // with the field-sensitive domain on and off.  All digests must differ
  // pairwise (mode, depth, and domain are all part of the digest header —
  // each checks a different site/page set) but be jobs-invariant within a
  // mode.
  spec.static_ddt = true;
  spec.runs = std::min(spec.runs, 48u);
  struct FootprintMode {
    const char* label;
    bool summaries;
    u32 context_depth;
    bool field_sensitive;
  };
  const FootprintMode modes[] = {
      {"static-ddt-flat", false, 1, false},
      {"static-ddt-summary-ctx0", true, 0, false},
      {"static-ddt-summary-ctx1", true, 1, false},
      {"static-ddt-flat-field", false, 1, true},
      {"static-ddt-summary-ctx0-field", true, 0, true},
      {"static-ddt-summary-ctx1-field", true, 1, true},
  };
  std::vector<std::string> mode_digests;
  for (const FootprintMode& mode : modes) {
    spec.footprint_summaries = mode.summaries;
    spec.context_depth = mode.context_depth;
    spec.field_sensitive = mode.field_sensitive;
    std::string footprint_digest;
    for (const u32 jobs : {1u, 4u, 8u}) {
      spec.jobs = jobs;
      const std::string digest = campaign::deterministic_digest(runner.run(spec));
      if (jobs == 1) {
        footprint_digest = digest;
      } else if (digest != footprint_digest) {
        std::cerr << "DETERMINISM VIOLATION (" << mode.label << ") at jobs=" << jobs
                  << "\n";
        return 1;
      }
    }
    std::cout << mode.label << " digest identical across jobs {1, 4, 8}\n";
    for (const std::string& other : mode_digests) {
      if (footprint_digest == other) {
        std::cerr << "two footprint modes produced identical digests — the mode "
                     "or depth flag is not reaching the digest (" << mode.label
                  << ")\n";
        return 1;
      }
    }
    mode_digests.push_back(footprint_digest);
  }
  return 0;
}
