// rse_campaign: parallel fault-injection campaigns with outcome
// classification (docs/campaigns.md).
//
//   rse_campaign [options]
//     --workload <name>     loop | calls | args | stride | kmeans |
//                           kmeans-large | server                  (kmeans)
//     --runs <n>            number of injected runs, 1..10^6       (256)
//     --seed <n>            campaign seed                          (1)
//     --jobs <n>            worker threads, 0..256; 0 = all        (0)
//                           hardware threads, at most 256
//     --targets a,b,...     subset of reg,instr,data,config        (all)
//     --hang-factor <f>     cycle budget = f x golden cycles       (8)
//     --runs-csv <path>     per-run CSV export
//     --json <path|->       JSON report ('-' = stdout)
//     --static-cfc          static CFC successor table, computed at load
//     --static-ddt          static DDT page footprint, computed at load
//                           (enables the DDT)
//     --flat-footprint      static analysis without interprocedural summaries
//     --context-depth <n>   context-sensitive footprint cloning depth
//                           (default 1; 0 = context-insensitive)
//     --field-sensitive / --no-field-sensitive
//                           strided-interval (field-level) footprint domain
//                           for --static-ddt (default on)
//     --fast-forward        run each eligible run's fault-free prefix through
//                           the exec/ fast engine, then transplant into the
//                           cycle-accurate core at the injection cycle,
//                           instead of forking it; a run the fast engine
//                           cannot serve still forks (identical digest;
//                           docs/execution.md)
//     --snapshot-buckets n  snapshot-chain bucket count, 1..256          (8):
//                           a run not fast-forwarded forks from the latest
//                           of these whole-machine snapshots at or before
//                           its injection cycle (docs/campaigns.md)
//     --dme                 divergent multi-version execution: the campaign
//                           runs layout-randomized under MLR seed A and every
//                           run's canonical trace is diffed against a
//                           fault-free reference variant under seed B; adds
//                           the detected_dme outcome (docs/security.md)
//     --dme-seeds A:B       the two MLR seeds (default 1:2; implies --dme)
//     --shard i/N           execute plan range i of N (multi-process
//                           scale-out; write the partial report with
//                           --shard-out, fold with --merge)
//     --shard-out <path>    write this shard's report file
//     --merge f1 f2 ...     merge shard report files into one report and
//                           exit (all remaining args are shard files)
//     --window LO:HI        injection-cycle window as fractions of the
//                           golden run (default 0:1 = full range)
//     --ci-threshold <f>    refine outcome strata whose Wilson 95% interval
//                           straddles f with extra deterministic runs
//     --ci-batch <n>        refinement batch size (0 = max(16, runs/2))
//     --ci-max-runs <n>     refinement total-run cap, 0..10^6
//                           (0 = 4 x runs, at most 10^6)
//     --describe <index>    print one run's injection point and exit; the
//                           index is below --runs (below the refinement
//                           cap under --ci-threshold)
//     --digest              print the deterministic digest instead of the
//                           summary (for cross---jobs comparisons)
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>

#include "args.hpp"
#include "campaign/runner.hpp"
#include "campaign/shard.hpp"
#include "common/error.hpp"

using namespace rse;

namespace {

int usage() {
  std::cerr << "usage: rse_campaign [--workload NAME] [--runs N] [--seed N] [--jobs 0..256]\n"
            << "  [--targets reg,instr,data,config] [--hang-factor F] [--static-cfc]\n"
            << "  [--static-ddt] [--flat-footprint] [--context-depth N] [--field-sensitive]\n"
            << "  [--no-field-sensitive] [--fast-forward] [--snapshot-buckets N]\n"
            << "  [--dme] [--dme-seeds A:B] [--shard I/N] [--shard-out PATH]\n"
            << "  [--window LO:HI]\n"
            << "  [--ci-threshold F] [--ci-batch N] [--ci-max-runs N]\n"
            << "  [--runs-csv PATH] [--json PATH|-] [--describe INDEX] [--digest]\n"
            << "  | rse_campaign --merge SHARD-FILE... [--runs-csv PATH] [--json PATH|-]\n"
            << "workloads:";
  for (const std::string& name : campaign::workload_names()) std::cerr << ' ' << name;
  std::cerr << "\n";
  return 2;
}

bool parse_targets(const std::string& list, std::vector<campaign::InjectTarget>* out) {
  out->clear();
  std::istringstream in(list);
  std::string token;
  while (std::getline(in, token, ',')) {
    campaign::InjectTarget target;
    if (!campaign::parse_target(token, &target)) return false;
    out->push_back(target);
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  campaign::CampaignSpec spec;
  spec.jobs = 0;  // default: all hardware threads
  std::string runs_csv, json_path, shard_out;
  bool digest_only = false;
  bool merge_mode = false;
  std::vector<std::string> merge_paths;
  std::optional<u32> describe_index;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      spec.workload = value();
    } else if (arg == "--runs") {
      spec.runs = tools::uint_arg<u32>(arg, value(), 1, campaign::kMaxRuns);
    } else if (arg == "--seed") {
      spec.seed = tools::uint_arg<u64>(arg, value());
    } else if (arg == "--jobs") {
      spec.jobs = tools::uint_arg<u32>(arg, value(), 0, campaign::kMaxJobs);
    } else if (arg == "--hang-factor") {
      spec.hang_factor = tools::real_arg(arg, value(), 0.0, 1e6);
    } else if (arg == "--static-cfc") {
      spec.static_cfc = true;
    } else if (arg == "--static-ddt") {
      spec.static_ddt = true;
    } else if (arg == "--flat-footprint") {
      spec.footprint_summaries = false;
    } else if (arg == "--context-depth") {
      spec.context_depth = tools::uint_arg<u32>(arg, value());
    } else if (arg == "--field-sensitive") {
      spec.field_sensitive = true;
    } else if (arg == "--no-field-sensitive") {
      spec.field_sensitive = false;
    } else if (arg == "--fast-forward") {
      spec.fast_forward = true;
    } else if (arg == "--snapshot-buckets") {
      spec.snapshot_buckets =
          tools::uint_arg<u32>(arg, value(), 1, campaign::kMaxSnapshotBuckets);
    } else if (arg == "--dme") {
      spec.dme = true;
    } else if (arg == "--dme-seeds") {
      const auto [a, b] = tools::split_arg(arg, value(), ':', "A:B");
      spec.dme = true;
      spec.dme_seed_a = tools::uint_arg<u64>(arg, a);
      spec.dme_seed_b = tools::uint_arg<u64>(arg, b);
    } else if (arg == "--shard") {
      const auto [index, count] = tools::split_arg(arg, value(), '/', "I/N");
      spec.shard_index = tools::uint_arg<u32>(arg, index);
      spec.shard_count = tools::uint_arg<u32>(arg, count);
    } else if (arg == "--shard-out") {
      shard_out = value();
    } else if (arg == "--merge") {
      merge_mode = true;
    } else if (arg == "--window") {
      const auto [lo, hi] = tools::split_arg(arg, value(), ':', "LO:HI fractions");
      spec.window_lo = tools::real_arg(arg, lo, 0.0, 1.0);
      spec.window_hi = tools::real_arg(arg, hi, 0.0, 1.0);
    } else if (arg == "--ci-threshold") {
      spec.ci_threshold = tools::real_arg(arg, value(), 0.0, 1.0);
    } else if (arg == "--ci-batch") {
      spec.ci_batch = tools::uint_arg<u32>(arg, value());
    } else if (arg == "--ci-max-runs") {
      spec.ci_max_runs = tools::uint_arg<u32>(arg, value(), 0, campaign::kMaxRuns);
    } else if (arg == "--targets") {
      if (!parse_targets(value(), &spec.targets)) {
        std::cerr << "bad --targets list\n";
        return usage();
      }
    } else if (arg == "--runs-csv") {
      runs_csv = value();
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--describe") {
      describe_index = tools::uint_arg<u32>(arg, value());
    } else if (arg == "--digest") {
      digest_only = true;
    } else if (merge_mode && arg.rfind("--", 0) != 0) {
      merge_paths.push_back(arg);
    } else {
      return usage();
    }
  }
  if (merge_mode && merge_paths.empty()) {
    std::cerr << "--merge needs at least one shard report file\n";
    return usage();
  }
  if (describe_index && *describe_index >= campaign::max_runs(spec)) {
    // The campaign has no such run (its plan would still describe one).
    tools::bad_value("--describe", std::to_string(*describe_index),
                     "a run index below " + std::to_string(campaign::max_runs(spec)));
  }

  try {
    campaign::CampaignRunner runner;

    if (describe_index) {
      const campaign::WorkloadSetup setup = campaign::CampaignRunner::setup_for(spec);
      const auto golden = runner.cache().get(setup);
      const campaign::InjectionPlan plan = runner.plan_for(spec, *golden, setup);
      std::cout << campaign::describe(plan.record(*describe_index)) << "\n";
      return 0;
    }

    const campaign::CampaignReport report =
        merge_mode ? campaign::merge_shard_files(merge_paths) : runner.run(spec);

    if (digest_only) {
      std::cout << campaign::deterministic_digest(report);
    } else {
      std::cout << campaign::summary_text(report);
      // How runs started: fallback accounting for runs offered a
      // fast-forward prefix (only under --fast-forward with a clean golden
      // run), and the runs forked from a snapshot, fast-forward fallbacks
      // included.  Observational only: outcomes and the digest never
      // depend on it.
      const campaign::FastForwardStats ff = runner.fast_forward_stats();
      if (ff.fast + ff.fallbacks() > 0) {
        std::cout << "fast-forward: " << ff.fast << " fast, " << ff.fallbacks()
                  << " fallback (target " << ff.fallback_target << ", unmapped "
                  << ff.fallback_unmapped << ", conflict " << ff.fallback_conflict
                  << ", checked " << ff.fallback_checked
                  << ", syscall " << ff.fallback_syscall << ", illegal " << ff.fallback_illegal
                  << ", other " << ff.fallback_other << ")\n";
      }
      if (runner.forked_runs() > 0) {
        std::cout << "checkpoint-fork: " << runner.forked_runs() << " of "
                  << report.results.size() << " runs forked\n";
      }
    }
    if (!shard_out.empty() && !campaign::write_shard_report(report, shard_out)) {
      std::cerr << "failed to write " << shard_out << "\n";
      return 1;
    }
    if (!runs_csv.empty() && !campaign::write_runs_csv(report, runs_csv)) {
      std::cerr << "failed to write " << runs_csv << "\n";
      return 1;
    }
    if (!json_path.empty()) {
      if (json_path == "-") {
        std::cout << campaign::to_json(report);
      } else {
        std::ofstream out(json_path);
        out << campaign::to_json(report);
        if (!out) {
          std::cerr << "failed to write " << json_path << "\n";
          return 1;
        }
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
