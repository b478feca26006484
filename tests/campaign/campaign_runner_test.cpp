// CampaignRunner end-to-end: classification totals, campaign-level
// determinism (same seed twice; --jobs 1 vs --jobs N), golden-run caching,
// and single-run reproduction of a parallel campaign's results.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "campaign/runner.hpp"

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

TEST(CampaignRunner, FastForwardLeavesEveryClassifiedOutcomeUnchanged) {
  // --fast-forward replays each eligible run's fault-free prefix through the
  // exec/ fast engine and transplants into the cycle-accurate core at the
  // injection cycle.  Classification must be bit-identical: same outcome for
  // every run index, and therefore the same deterministic digest.
  CampaignRunner runner;
  const CampaignSpec classic_spec = loop_spec(48, 2);
  CampaignSpec ff_spec = classic_spec;
  ff_spec.fast_forward = true;

  const CampaignReport classic = runner.run(classic_spec);
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
  const CampaignReport classic = runner.run(classic_spec);
  const CampaignReport ff = runner.run(ff_spec);
  EXPECT_EQ(deterministic_digest(ff), deterministic_digest(classic));
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

// Every loader analysis knob changes what the golden run's load computes, so
// each one must be part of the key: two setups differing in any single knob
// never share a golden run.
TEST(GoldenCache, EveryAnalysisKnobIsPartOfTheKey) {
  GoldenCache cache;
  const WorkloadSetup base = make_workload("loop");
  (void)cache.get(base);
  ASSERT_EQ(cache.misses(), 1u);

  const std::vector<std::pair<const char*, void (*)(os::OsConfig&)>> flips = {
      {"static_cfc", [](os::OsConfig& os) { os.static_cfc = !os.static_cfc; }},
      {"static_ddt", [](os::OsConfig& os) { os.static_ddt = !os.static_ddt; }},
      {"footprint_summaries",
       [](os::OsConfig& os) { os.footprint_summaries = !os.footprint_summaries; }},
      {"context_depth", [](os::OsConfig& os) { os.context_depth += 1; }},
      {"field_sensitive", [](os::OsConfig& os) { os.field_sensitive = !os.field_sensitive; }},
      {"field_sp_depth", [](os::OsConfig& os) { os.field_sp_depth += 1; }},
  };
  u64 misses = cache.misses();
  for (const auto& [knob, flip] : flips) {
    WorkloadSetup setup = base;
    flip(setup.os);
    (void)cache.get(setup);
    EXPECT_EQ(cache.misses(), misses + 1) << knob << " aliased the base golden run";
    misses = cache.misses();
  }
}

}  // namespace
}  // namespace rse::campaign
