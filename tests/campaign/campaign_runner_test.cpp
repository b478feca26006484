// CampaignRunner end-to-end: classification totals, campaign-level
// determinism (same seed twice; --jobs 1 vs --jobs N), golden-run caching,
// single-run reproduction of a parallel campaign's results, and the worker
// pool's error reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/shard.hpp"
#include "common/error.hpp"

namespace rse::campaign {
namespace {

CampaignSpec loop_spec(u32 runs = 24, u32 jobs = 1) {
  CampaignSpec spec;
  spec.workload = "loop";
  spec.runs = runs;
  spec.seed = 2026;
  spec.jobs = jobs;
  return spec;
}

TEST(CampaignRunner, EveryRunLandsInExactlyOneBucket) {
  CampaignRunner runner;
  const CampaignReport report = runner.run(loop_spec());
  ASSERT_EQ(report.results.size(), 24u);
  u32 total = 0;
  for (unsigned o = 0; o < kNumOutcomes; ++o) total += report.by_outcome[o];
  EXPECT_EQ(total, 24u);
  u32 per_target_total = 0;
  for (unsigned t = 0; t < kNumInjectTargets; ++t) per_target_total += report.by_target_runs[t];
  EXPECT_EQ(per_target_total, 24u);
  // Results stay in run-index order no matter how they were scheduled.
  for (u32 i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i].record.run_index, i);
  }
}

TEST(CampaignRunner, SameSpecTwiceIsByteIdentical) {
  CampaignRunner runner;
  const CampaignReport a = runner.run(loop_spec());
  const CampaignReport b = runner.run(loop_spec());
  ASSERT_EQ(a.results.size(), b.results.size());
  for (u32 i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].record, b.results[i].record) << "run " << i;
    EXPECT_EQ(a.results[i].outcome, b.results[i].outcome) << "run " << i;
    EXPECT_EQ(a.results[i].cycles, b.results[i].cycles) << "run " << i;
  }
  EXPECT_EQ(deterministic_digest(a), deterministic_digest(b));
}

TEST(CampaignRunner, JobCountDoesNotChangeTheReport) {
  CampaignRunner runner;
  const CampaignReport serial = runner.run(loop_spec(24, 1));
  const CampaignReport parallel = runner.run(loop_spec(24, 8));
  EXPECT_EQ(deterministic_digest(serial), deterministic_digest(parallel));
  EXPECT_EQ(serial.by_outcome, parallel.by_outcome);
  EXPECT_EQ(serial.by_target_outcome, parallel.by_target_outcome);
}

TEST(CampaignRunner, GoldenRunIsSimulatedOnceAcrossCampaigns) {
  GoldenCache cache;
  CampaignRunner runner(&cache);
  runner.run(loop_spec(4, 1));
  EXPECT_EQ(cache.misses(), 1u);
  runner.run(loop_spec(4, 2));
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GE(cache.hits(), 1u);
}

TEST(CampaignRunner, SingleRunReproducesCampaignResult) {
  CampaignRunner runner;
  const CampaignSpec spec = loop_spec(12, 4);
  const CampaignReport report = runner.run(spec);

  const WorkloadSetup setup = make_workload(spec.workload);
  const auto golden = runner.cache().get(setup);
  const InjectionPlan plan = runner.plan_for(spec, *golden, setup);
  for (const u32 index : {0u, 5u, 11u}) {
    const RunResult replay = runner.run_one(setup, *golden, plan.record(index));
    EXPECT_EQ(replay.record, report.results[index].record);
    EXPECT_EQ(replay.outcome, report.results[index].outcome);
    EXPECT_EQ(replay.cycles, report.results[index].cycles);
  }
}

TEST(CampaignRunner, ClassifiesFaultsIntoMultipleBuckets) {
  // 64 runs over all four target classes must produce a non-trivial outcome
  // mix: at least some masked runs and at least some unmasked ones.
  CampaignRunner runner;
  const CampaignReport report = runner.run(loop_spec(64, 2));
  EXPECT_GT(report.by_outcome[static_cast<unsigned>(Outcome::kMasked)], 0u);
  EXPECT_GT(report.unmasked(), 0u);
  EXPECT_GT(report.faults_applied, 0u);
}

TEST(CampaignRunner, ConfigFaultsReachTheSelfCheckPath) {
  // Restricting the campaign to config-bit faults (IOQ stuck-at + module
  // behaviour modes) must exercise detection or at worst masking — a config
  // fault cannot silently corrupt the program's own data.
  CampaignSpec spec = loop_spec(32, 2);
  spec.targets = {InjectTarget::kConfigBit};
  CampaignRunner runner;
  const CampaignReport report = runner.run(spec);
  EXPECT_EQ(report.by_outcome[static_cast<unsigned>(Outcome::kSdc)], 0u);
  EXPECT_EQ(report.results.size(), 32u);
}

TEST(CampaignRunner, RunsCsvAndJsonExport) {
  CampaignRunner runner;
  const CampaignReport report = runner.run(loop_spec(8, 2));
  const std::string csv_path = ::testing::TempDir() + "campaign_runs.csv";
  ASSERT_TRUE(write_runs_csv(report, csv_path));

  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"workload\": \"loop\""), std::string::npos);
  EXPECT_NE(json.find("\"outcomes\""), std::string::npos);
  EXPECT_NE(json.find("\"coverage\""), std::string::npos);

  const std::string summary = summary_text(report);
  EXPECT_NE(summary.find("detection coverage"), std::string::npos);
  EXPECT_NE(summary.find("runs/sec"), std::string::npos);
}

TEST(CampaignRunner, JsonCarriesEveryShardHeaderKey) {
  // The shard report's header names everything that identifies a campaign;
  // a JSON reader must be able to tell the same (fault targets, hang budget,
  // refinement knobs included).
  CampaignSpec spec = loop_spec(4, 1);
  spec.targets = {InjectTarget::kRegisterBit, InjectTarget::kDataWord};
  CampaignRunner runner;
  const CampaignReport report = runner.run(spec);
  const std::string json = to_json(report);
  std::istringstream header(shard_report_text(report));
  std::string line;
  std::getline(header, line);  // the format line
  u32 keys = 0;
  while (std::getline(header, line) && line.rfind("run ", 0) != 0 && line != "end") {
    const std::string key = line.substr(0, line.find(' '));
    EXPECT_NE(json.find("\"" + key + "\": "), std::string::npos) << key;
    ++keys;
  }
  EXPECT_GE(keys, 25u);
  EXPECT_NE(json.find("\"targets\": [\"reg\", \"data\"]"), std::string::npos) << json;
}

TEST(CampaignRunner, RunCountsPastTheCapAreConfigErrors) {
  // Checked before the golden run: a campaign preallocates one result per
  // run, so these would exhaust memory instead.
  CampaignRunner runner;
  CampaignSpec runs = loop_spec(kMaxRuns + 1);
  EXPECT_THROW(runner.run(runs), ConfigError);
  CampaignSpec cap = loop_spec();
  cap.ci_threshold = 0.05;
  cap.ci_max_runs = kMaxRuns + 1;
  EXPECT_THROW(runner.run(cap), ConfigError);
  // The default refinement cap, 4 x runs, stops at kMaxRuns too.
  CampaignSpec large = loop_spec(kMaxRuns / 2);
  large.ci_threshold = 0.05;
  EXPECT_EQ(max_runs(large), kMaxRuns);
}

TEST(CampaignRunner, FastForwardLeavesEveryClassifiedOutcomeUnchanged) {
  // --fast-forward replays each eligible run's fault-free prefix through the
  // exec/ fast engine and transplants into the cycle-accurate core at the
  // injection cycle.  Classification must be bit-identical: same outcome for
  // every run index, and therefore the same deterministic digest.
  CampaignRunner runner;
  const CampaignSpec classic_spec = loop_spec(48, 2);
  CampaignSpec ff_spec = classic_spec;
  ff_spec.fast_forward = true;

  const CampaignReport classic = runner.run_from_reset(classic_spec);
  const CampaignReport ff = runner.run(ff_spec);
  EXPECT_EQ(deterministic_digest(ff), deterministic_digest(classic));
  ASSERT_EQ(ff.results.size(), classic.results.size());
  for (u32 i = 0; i < classic.results.size(); ++i) {
    EXPECT_EQ(ff.results[i].record, classic.results[i].record) << "run " << i;
    EXPECT_EQ(ff.results[i].outcome, classic.results[i].outcome) << "run " << i;
    EXPECT_EQ(ff.results[i].fault_applied, classic.results[i].fault_applied) << "run " << i;
  }
}

TEST(CampaignRunner, FastForwardRegisterOnlyCampaignMatchesClassic) {
  // Register-bit faults are the fast-forwardable class — every eligible run
  // actually takes the fast path here, so this pins the switchover itself.
  CampaignRunner runner;
  CampaignSpec classic_spec = loop_spec(32, 2);
  classic_spec.targets = {InjectTarget::kRegisterBit};
  CampaignSpec ff_spec = classic_spec;
  ff_spec.fast_forward = true;
  const CampaignReport classic = runner.run_from_reset(classic_spec);
  const CampaignReport ff = runner.run(ff_spec);
  EXPECT_EQ(deterministic_digest(ff), deterministic_digest(classic));
}

TEST(CampaignRunner, FastForwardStopsAtTheHangBudgetLikeClassic) {
  // At hang factor 0.5 the budget cuts the fault-free run in half, so many
  // injection cycles lie past it.  A from-reset run stops at the budget
  // without applying those faults; a fast-forward prefix must not run past
  // it either, or the fault lands where the classic run never gets.
  CampaignRunner runner;
  CampaignSpec classic_spec;
  classic_spec.workload = "kmeans-large";
  classic_spec.runs = 16;
  classic_spec.seed = 64;
  classic_spec.jobs = 2;
  classic_spec.hang_factor = 0.5;
  CampaignSpec ff_spec = classic_spec;
  ff_spec.fast_forward = true;

  const CampaignReport classic = runner.run_from_reset(classic_spec);
  const CampaignReport ff = runner.run(ff_spec);
  EXPECT_EQ(deterministic_digest(ff), deterministic_digest(classic));
  EXPECT_EQ(ff.faults_applied, classic.faults_applied);

  const Cycle budget =
      static_cast<Cycle>(static_cast<double>(classic.golden_cycles) * classic_spec.hang_factor) +
      20'000;
  ASSERT_EQ(ff.results.size(), classic.results.size());
  u32 past_budget = 0;
  for (u32 i = 0; i < classic.results.size(); ++i) {
    if (classic.results[i].record.inject_cycle < budget) continue;
    ++past_budget;
    for (const CampaignReport* report : {&classic, &ff}) {
      const RunResult& run = report->results[i];
      EXPECT_FALSE(run.fault_applied) << "run " << i << (report == &ff ? " (ff)" : "");
      EXPECT_EQ(run.cycles, budget) << "run " << i << (report == &ff ? " (ff)" : "");
    }
  }
  EXPECT_GT(past_budget, 0u);
}

/// for_each_run over [lo, hi) with `jobs` workers; `fail` decides what the
/// callback throws at an index.  Returns the error message, or "" when
/// nothing escaped, and counts the calls each index got.
std::string pool_error(u32 lo, u32 hi, u32 jobs, void (*fail)(u32),
                       std::vector<std::atomic<u32>>& calls) {
  try {
    for_each_run(lo, hi, jobs, [&](u32 index) {
      calls[index].fetch_add(1);
      fail(index);
    });
  } catch (const SimError& e) {
    return e.what();
  }
  return "";
}

TEST(ForEachRun, AFailingRunBecomesASimErrorNamingItsIndex) {
  for (const u32 jobs : {1u, 4u}) {
    std::vector<std::atomic<u32>> calls(64);
    const std::string error = pool_error(0, 64, jobs, [](u32 index) {
      if (index == 37) throw std::runtime_error("boom");
    }, calls);
    EXPECT_EQ(error, "run 37: boom") << "jobs " << jobs;
    // The other workers carried on: every index ran exactly once.
    for (u32 i = 0; i < 64; ++i) EXPECT_EQ(calls[i].load(), 1u) << "index " << i;
  }
}

TEST(ForEachRun, TheLowestFailingIndexIsReportedForAnyJobCount) {
  for (const u32 jobs : {1u, 4u}) {
    std::vector<std::atomic<u32>> calls(40);
    const std::string error = pool_error(8, 40, jobs, [](u32 index) {
      if (index == 31) throw std::runtime_error("late");
      if (index == 12) throw GuestError("restore failed");
      if (index == 20) throw 7;
    }, calls);
    EXPECT_EQ(error, "run 12: restore failed") << "jobs " << jobs;
    for (u32 i = 0; i < 40; ++i) EXPECT_EQ(calls[i].load(), i >= 8 ? 1u : 0u) << "index " << i;
  }
}

TEST(ForEachRun, ANonStandardExceptionIsReportedToo) {
  for (const u32 jobs : {1u, 4u}) {
    std::vector<std::atomic<u32>> calls(16);
    const std::string error = pool_error(0, 16, jobs, [](u32 index) {
      if (index == 5) throw 5;
    }, calls);
    EXPECT_EQ(error, "run 5: unknown exception") << "jobs " << jobs;
  }
}

TEST(ForEachRun, NoFailureMeansNoError) {
  std::vector<std::atomic<u32>> calls(16);
  EXPECT_EQ(pool_error(0, 16, 4, [](u32) {}, calls), "");
  EXPECT_EQ(pool_error(3, 3, 4, [](u32) { throw 1; }, calls), "");
}

TEST(GoldenCache, DistinctWorkloadsGetDistinctGoldenRuns) {
  GoldenCache cache;
  const auto loop = cache.get(make_workload("loop"));
  const auto kmeans = cache.get(make_workload("kmeans"));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(loop->cycles, kmeans->cycles);
  EXPECT_EQ(loop->exit_code, 0);
  EXPECT_EQ(kmeans->exit_code, 0);
  EXPECT_FALSE(loop->output.empty());
}

// Every loader analysis knob changes what the golden run's load computes,
// and every other OS and machine config field can change the run itself, so
// each one must be part of the key: two setups differing in any single field
// never share a golden run.  The OS list is every OsConfig field; the machine
// list flips one field of each nested config.
TEST(GoldenCache, EveryAnalysisKnobIsPartOfTheKey) {
  GoldenCache cache;
  const WorkloadSetup base = make_workload("loop");
  (void)cache.get(base);
  ASSERT_EQ(cache.misses(), 1u);

  using Flip = void (*)(WorkloadSetup&);
  const std::vector<std::pair<const char*, Flip>> flips = {
      {"static_cfc", [](WorkloadSetup& w) { w.os.static_cfc = !w.os.static_cfc; }},
      {"static_ddt", [](WorkloadSetup& w) { w.os.static_ddt = !w.os.static_ddt; }},
      {"footprint_summaries",
       [](WorkloadSetup& w) { w.os.footprint_summaries = !w.os.footprint_summaries; }},
      {"context_depth", [](WorkloadSetup& w) { w.os.context_depth += 1; }},
      {"field_sensitive", [](WorkloadSetup& w) { w.os.field_sensitive = !w.os.field_sensitive; }},
      {"field_sp_depth", [](WorkloadSetup& w) { w.os.field_sp_depth += 1; }},
      {"os.quantum", [](WorkloadSetup& w) { w.os.quantum += 1'000; }},
      {"os.context_switch_cost", [](WorkloadSetup& w) { w.os.context_switch_cost += 1; }},
      {"os.syscall_cost", [](WorkloadSetup& w) { w.os.syscall_cost += 1; }},
      {"os.thread_stack_bytes", [](WorkloadSetup& w) { w.os.thread_stack_bytes *= 2; }},
      {"os.max_threads", [](WorkloadSetup& w) { w.os.max_threads += 1; }},
      {"os.check_error_retries", [](WorkloadSetup& w) { w.os.check_error_retries += 1; }},
      {"os.randomize_layout",
       [](WorkloadSetup& w) { w.os.randomize_layout = !w.os.randomize_layout; }},
      {"os.rerandomize_interval", [](WorkloadSetup& w) { w.os.rerandomize_interval = 5'000; }},
      {"os.max_checkpoint_bytes", [](WorkloadSetup& w) { w.os.max_checkpoint_bytes = 4'096; }},
      {"os.run_limit", [](WorkloadSetup& w) { w.os.run_limit -= 1; }},
      {"os.seed", [](WorkloadSetup& w) { w.os.seed += 1; }},
      {"machine.framework_present",
       [](WorkloadSetup& w) { w.machine.framework_present = !w.machine.framework_present; }},
      {"core.fetch_width", [](WorkloadSetup& w) { w.machine.core.fetch_width = 2; }},
      {"core.predictor.bimodal_entries",
       [](WorkloadSetup& w) { w.machine.core.predictor.bimodal_entries /= 2; }},
      {"il1.size_bytes", [](WorkloadSetup& w) { w.machine.il1.size_bytes /= 2; }},
      {"dl1.size_bytes", [](WorkloadSetup& w) { w.machine.dl1.size_bytes /= 2; }},
      {"il2.size_bytes", [](WorkloadSetup& w) { w.machine.il2.size_bytes /= 2; }},
      {"dl2.size_bytes", [](WorkloadSetup& w) { w.machine.dl2.size_bytes /= 2; }},
      {"bus_baseline.first_chunk_cycles",
       [](WorkloadSetup& w) { w.machine.bus_baseline.first_chunk_cycles += 1; }},
      {"bus_with_rse.first_chunk_cycles",
       [](WorkloadSetup& w) { w.machine.bus_with_rse.first_chunk_cycles += 1; }},
      {"selfcheck.watchdog_timeout",
       [](WorkloadSetup& w) { w.machine.selfcheck.watchdog_timeout += 1; }},
      {"icm.cache_entries", [](WorkloadSetup& w) { w.machine.icm.cache_entries /= 2; }},
      {"mlr.entropy_pages", [](WorkloadSetup& w) { w.machine.mlr.entropy_pages /= 2; }},
      {"ddt.pst_entries", [](WorkloadSetup& w) { w.machine.ddt.pst_entries = 4; }},
      {"ahbm.sample_interval", [](WorkloadSetup& w) { w.machine.ahbm.sample_interval *= 2; }},
      {"cfc.text_hi", [](WorkloadSetup& w) { w.machine.cfc.text_hi = 0x1000; }},
  };
  u64 misses = cache.misses();
  for (const auto& [knob, flip] : flips) {
    WorkloadSetup setup = base;
    flip(setup);
    (void)cache.get(setup);
    EXPECT_EQ(cache.misses(), misses + 1) << knob << " aliased the base golden run";
    misses = cache.misses();
  }
}

}  // namespace
}  // namespace rse::campaign
