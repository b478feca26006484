// Determinism harness for the checkpoint-fork campaign engine and
// multi-process sharding (docs/campaigns.md):
//  - checkpoint-fork campaigns (run()'s default) must reproduce the
//    from-reset campaign (run_from_reset) byte-for-byte — deterministic
//    digest AND the per-run CSV (outcomes, fault_applied, per-run cycle
//    counts) — on real workloads;
//  - merging shard reports must reproduce the unsharded digest for any
//    shard count x jobs combination, through the text round trip;
//  - the digest and golden-cache keys must see exactly the right spec
//    fields: execution-strategy knobs (the prefix, buckets, shard
//    coordinates, jobs, fast_forward) stay out, run-set knobs (window,
//    ci_threshold) go in.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/shard.hpp"
#include "campaign/stats.hpp"
#include "common/error.hpp"

using namespace rse;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

campaign::CampaignSpec small_spec(const std::string& workload, u32 runs) {
  campaign::CampaignSpec spec;
  spec.workload = workload;
  spec.runs = runs;
  spec.seed = 5;
  spec.jobs = 2;
  return spec;
}

class ForkShardTest : public ::testing::Test {
 protected:
  campaign::GoldenCache cache_;
  campaign::CampaignRunner runner_{&cache_};
};

TEST_F(ForkShardTest, ForkedCampaignIsByteIdenticalToFromResetOnKmeans) {
  const campaign::CampaignSpec spec = small_spec("kmeans", 32);
  const campaign::CampaignReport classic = runner_.run_from_reset(spec);
  const campaign::CampaignReport forked = runner_.run(spec);
  EXPECT_EQ(runner_.forked_runs(), forked.results.size());

  EXPECT_EQ(campaign::deterministic_digest(classic), campaign::deterministic_digest(forked));
  // Byte identity extends to the per-run CSV: outcome, fault_applied, and
  // per-run cycle counts all survive forking (the chain is built from reset,
  // so each snapshot restores the precise microarchitectural state).
  const std::string classic_csv = ::testing::TempDir() + "/classic_kmeans.csv";
  const std::string forked_csv = ::testing::TempDir() + "/forked_kmeans.csv";
  ASSERT_TRUE(campaign::write_runs_csv(classic, classic_csv));
  ASSERT_TRUE(campaign::write_runs_csv(forked, forked_csv));
  EXPECT_EQ(read_file(classic_csv), read_file(forked_csv));
}

TEST_F(ForkShardTest, ForkedCampaignIsByteIdenticalToFromResetOnStride) {
  campaign::CampaignSpec spec = small_spec("stride", 32);
  spec.static_ddt = true;  // footprint check in the loop: modules serialize too
  const campaign::CampaignReport classic = runner_.run_from_reset(spec);
  spec.snapshot_buckets = 5;
  const campaign::CampaignReport forked = runner_.run(spec);
  EXPECT_EQ(runner_.forked_runs(), forked.results.size());

  EXPECT_EQ(campaign::deterministic_digest(classic), campaign::deterministic_digest(forked));
  const std::string classic_csv = ::testing::TempDir() + "/classic_stride.csv";
  const std::string forked_csv = ::testing::TempDir() + "/forked_stride.csv";
  ASSERT_TRUE(campaign::write_runs_csv(classic, classic_csv));
  ASSERT_TRUE(campaign::write_runs_csv(forked, forked_csv));
  EXPECT_EQ(read_file(classic_csv), read_file(forked_csv));
}

TEST_F(ForkShardTest, ShardMergeReproducesUnshardedDigestForAllGridPoints) {
  campaign::CampaignSpec spec = small_spec("loop", 26);  // 26: uneven shard splits
  const std::string unsharded = campaign::deterministic_digest(runner_.run(spec));

  for (const u32 shards : {1u, 2u, 4u, 7u}) {
    for (const u32 jobs : {1u, 4u}) {
      std::vector<campaign::CampaignReport> reports;
      for (u32 i = 0; i < shards; ++i) {
        campaign::CampaignSpec shard_spec = spec;
        shard_spec.jobs = jobs;
        shard_spec.shard_index = i;
        shard_spec.shard_count = shards;
        // Round-trip every shard through the text format — the CLI's
        // --shard-out / --merge path — not just through memory.
        reports.push_back(
            campaign::parse_shard_report(campaign::shard_report_text(runner_.run(shard_spec))));
      }
      const campaign::CampaignReport merged = campaign::merge_shard_reports(reports);
      EXPECT_EQ(unsharded, campaign::deterministic_digest(merged))
          << "shards=" << shards << " jobs=" << jobs;
    }
  }
}

TEST_F(ForkShardTest, ShardValidationRejectsGapsAndForeignShards) {
  campaign::CampaignSpec spec = small_spec("loop", 12);
  spec.shard_count = 3;
  spec.shard_index = 0;
  const campaign::CampaignReport shard0 = runner_.run(spec);
  spec.shard_index = 2;
  const campaign::CampaignReport shard2 = runner_.run(spec);

  // Missing shard 1: the run indices no longer partition [0, runs).
  EXPECT_THROW(campaign::merge_shard_reports({shard0, shard2}), SimError);
  // Duplicate shard: same failure, detected as a non-partition.
  EXPECT_THROW(campaign::merge_shard_reports({shard0, shard0, shard2}), SimError);
  // A shard of a different campaign (other seed) must be rejected outright.
  campaign::CampaignSpec foreign = small_spec("loop", 12);
  foreign.seed = 99;
  foreign.shard_count = 3;
  foreign.shard_index = 1;
  const campaign::CampaignReport foreign1 = runner_.run(foreign);
  EXPECT_THROW(campaign::merge_shard_reports({shard0, foreign1, shard2}), SimError);
  EXPECT_THROW(campaign::merge_shard_reports({}), SimError);
}

TEST_F(ForkShardTest, ShardReportTextRoundTripsEveryDeterministicField) {
  campaign::CampaignSpec spec = small_spec("loop", 9);
  spec.window_lo = 0.25;
  spec.window_hi = 0.75;
  spec.static_ddt = true;
  const campaign::CampaignReport report = runner_.run(spec);
  const campaign::CampaignReport round = campaign::parse_shard_report(
      campaign::shard_report_text(report));
  EXPECT_EQ(campaign::deterministic_digest(report), campaign::deterministic_digest(round));
  EXPECT_EQ(campaign::shard_report_text(report), campaign::shard_report_text(round));
  EXPECT_EQ(report.results.size(), round.results.size());
  for (size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i].record, round.results[i].record) << i;
    EXPECT_EQ(report.results[i].outcome, round.results[i].outcome) << i;
    EXPECT_EQ(report.results[i].fault_applied, round.results[i].fault_applied) << i;
    EXPECT_EQ(report.results[i].cycles, round.results[i].cycles) << i;
  }
  EXPECT_THROW(campaign::parse_shard_report("not a shard report\n"), SimError);
}

TEST_F(ForkShardTest, ShardReaderRejectsOutOfRangeRunFields) {
  const std::string text = campaign::shard_report_text(runner_.run(small_spec("loop", 2)));
  ASSERT_NO_THROW(campaign::parse_shard_report(text));
  const std::size_t begin = text.find("\nrun ") + 1;
  const std::size_t end = text.find('\n', begin);
  std::vector<std::string> fields;
  std::istringstream line(text.substr(begin, end - begin));
  for (std::string field; line >> field;) fields.push_back(field);
  ASSERT_EQ(fields.size(), 16u);
  // Field position on a run line, and one past the field's range.
  const std::pair<std::size_t, const char*> past_range[] = {
      {4, "33"},   // reg: kPcPseudoReg is 32
      {5, "32"},   // bit
      {8, "2"},    // config_kind: kModuleBehaviour is 1
      {10, "5"},   // ioq_fault: kCheckStuck1 is 4
      {11, "6"},   // module: kCfc is 5
      {12, "4"},   // module_fault: kFalseNegative is 3
  };
  for (const auto& [index, value] : past_range) {
    std::vector<std::string> mutated = fields;
    mutated[index] = value;
    std::string run_line;
    for (const std::string& field : mutated) run_line += (run_line.empty() ? "" : " ") + field;
    const std::string bad = text.substr(0, begin) + run_line + text.substr(end);
    EXPECT_THROW(campaign::parse_shard_report(bad), SimError)
        << "field " << index << " = " << value;
  }
}

/// `text` with its header line for `key` replaced by "key value".
std::string with_header_line(const std::string& text, const std::string& key,
                             const std::string& value) {
  const std::size_t begin = text.find("\n" + key + " ");
  if (begin == std::string::npos) {
    ADD_FAILURE() << "no header line '" << key << "'";
    return text;
  }
  const std::size_t end = text.find('\n', begin + 1);
  return text.substr(0, begin + 1) + key + " " + value + text.substr(end);
}

TEST_F(ForkShardTest, ShardReaderRejectsOutOfRangeSpecFields) {
  // A header the runner would refuse is no campaign it ran, so --merge must
  // not fold it: an empty campaign, an inverted window, a negative hang
  // factor, no snapshot bucket, a shard past the count, more jobs than a
  // campaign starts.
  const std::string text = campaign::shard_report_text(runner_.run(small_spec("loop", 2)));
  ASSERT_NO_THROW(campaign::parse_shard_report(text));
  const std::vector<std::vector<std::pair<std::string, std::string>>> cases = {
      {{"runs", "0"}},
      {{"window_lo", "0.9"}, {"window_hi", "0.1"}},
      {{"hang_factor", "-1"}},
      {{"snapshot_buckets", "0"}},
      {{"shard_index", "7"}},
      {{"jobs", "4000000000"}},
  };
  for (const auto& edits : cases) {
    std::string bad = text;
    for (const auto& [key, value] : edits) bad = with_header_line(bad, key, value);
    EXPECT_THROW(campaign::parse_shard_report(bad), SimError)
        << edits.front().first << " " << edits.front().second;
  }
}

TEST_F(ForkShardTest, ShardReaderRejectsUnknownWorkload) {
  // A name the workload table lacks is no campaign to merge, and one with a
  // quote would reach the JSON report unescaped.
  const std::string text = campaign::shard_report_text(runner_.run(small_spec("loop", 2)));
  ASSERT_NO_THROW(campaign::parse_shard_report(text));
  const std::string line = "\nworkload loop\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  for (const char* name : {"lo\"op", "loops", "kmeans large"}) {
    const std::string bad =
        text.substr(0, at) + "\nworkload " + name + "\n" + text.substr(at + line.size());
    EXPECT_THROW(campaign::parse_shard_report(bad), SimError) << name;
  }
}

// ---- digest key regressions: one test per new spec token ----------------

TEST_F(ForkShardTest, DigestExcludesExecutionStrategyKnobs) {
  campaign::CampaignSpec spec = small_spec("loop", 16);
  const std::string baseline = campaign::deterministic_digest(runner_.run_from_reset(spec));

  // Every knob that only changes HOW runs execute — never WHICH runs or
  // their outcomes — must stay out of the digest.  Each is toggled alone,
  // starting with the prefix itself: run() forks every run.
  EXPECT_EQ(baseline, campaign::deterministic_digest(runner_.run(spec))) << "checkpoint-fork";

  campaign::CampaignSpec buckets = spec;
  buckets.snapshot_buckets = 3;
  EXPECT_EQ(baseline, campaign::deterministic_digest(runner_.run(buckets)))
      << "snapshot_buckets";

  campaign::CampaignSpec jobs = spec;
  jobs.jobs = 4;
  EXPECT_EQ(baseline, campaign::deterministic_digest(runner_.run(jobs))) << "jobs";

  campaign::CampaignSpec ff = spec;
  ff.fast_forward = true;
  EXPECT_EQ(baseline, campaign::deterministic_digest(runner_.run(ff))) << "fast_forward";
}

TEST_F(ForkShardTest, DigestIncludesWindowTokenOnlyWhenNonDefault) {
  campaign::CampaignSpec spec = small_spec("loop", 16);
  const std::string baseline = campaign::deterministic_digest(runner_.run(spec));
  EXPECT_EQ(baseline.find("window"), std::string::npos)
      << "default window must not perturb historical digests";

  campaign::CampaignSpec windowed = spec;
  windowed.window_lo = 0.5;
  windowed.window_hi = 1.0;
  const std::string window_digest = campaign::deterministic_digest(runner_.run(windowed));
  EXPECT_NE(baseline, window_digest);
  EXPECT_NE(window_digest.find("window0.5000-1.0000"), std::string::npos) << window_digest;
}

TEST_F(ForkShardTest, DigestIncludesCiRefinementTokenOnlyWhenEnabled) {
  campaign::CampaignSpec spec = small_spec("loop", 16);
  const std::string baseline = campaign::deterministic_digest(runner_.run(spec));
  EXPECT_EQ(baseline.find("ci-refine"), std::string::npos);

  campaign::CampaignSpec refined = spec;
  refined.ci_threshold = 0.05;
  refined.ci_batch = 16;
  refined.ci_max_runs = 32;
  const std::string refined_digest = campaign::deterministic_digest(runner_.run(refined));
  EXPECT_NE(baseline, refined_digest);
  EXPECT_NE(refined_digest.find("ci-refine0.0500"), std::string::npos) << refined_digest;
}

TEST_F(ForkShardTest, RefinementIsJobsInvariantAndRejectsSharding) {
  campaign::CampaignSpec spec = small_spec("loop", 16);
  spec.ci_threshold = 0.05;
  spec.ci_batch = 16;
  spec.ci_max_runs = 48;
  spec.jobs = 1;
  const campaign::CampaignReport one = runner_.run(spec);
  spec.jobs = 4;
  const campaign::CampaignReport four = runner_.run(spec);
  EXPECT_EQ(campaign::deterministic_digest(one), campaign::deterministic_digest(four));
  EXPECT_GE(one.results.size(), 16u);

  spec.shard_count = 2;
  EXPECT_THROW(runner_.run(spec), ConfigError);
}

TEST_F(ForkShardTest, GoldenCacheKeyIgnoresExecutionStrategyKnobs) {
  campaign::CampaignSpec spec = small_spec("loop", 8);
  (void)runner_.run(spec);
  const u64 misses_after_first = cache_.misses();

  // From-reset, bucket, shard, window, and CI campaigns of the same
  // workload/config must all reuse the one cached golden run: the golden is
  // fault-free, so no execution or run-set knob may leak into its key.
  (void)runner_.run_from_reset(spec);
  campaign::CampaignSpec buckets = spec;
  buckets.snapshot_buckets = 3;
  (void)runner_.run(buckets);
  campaign::CampaignSpec shard = spec;
  shard.shard_index = 1;
  shard.shard_count = 2;
  (void)runner_.run(shard);
  campaign::CampaignSpec windowed = spec;
  windowed.window_lo = 0.5;
  windowed.window_hi = 1.0;
  (void)runner_.run(windowed);
  campaign::CampaignSpec refined = spec;
  refined.ci_threshold = 0.4;
  refined.ci_max_runs = 16;
  (void)runner_.run(refined);

  EXPECT_EQ(misses_after_first, cache_.misses());
  EXPECT_GE(cache_.hits(), 5u);
}

TEST_F(ForkShardTest, ShardRangesPartitionThePlan) {
  // The contiguous ranges for every shard count used in the grid must tile
  // [0, runs) without gaps or overlap — including counts that do not divide
  // the run count.
  for (const u32 runs : {1u, 7u, 26u, 100u}) {
    for (const u32 shards : {1u, 2u, 4u, 7u}) {
      u32 covered = 0;
      u32 prev_hi = 0;
      for (u32 i = 0; i < shards; ++i) {
        const u32 lo = static_cast<u32>(u64{runs} * i / shards);
        const u32 hi = static_cast<u32>(u64{runs} * (i + 1) / shards);
        EXPECT_EQ(prev_hi, lo);
        prev_hi = hi;
        covered += hi - lo;
      }
      EXPECT_EQ(prev_hi, runs);
      EXPECT_EQ(covered, runs);
    }
  }
}

TEST_F(ForkShardTest, InvalidShardAndWindowSpecsAreRejected) {
  campaign::CampaignSpec spec = small_spec("loop", 8);
  spec.shard_count = 0;
  EXPECT_THROW(runner_.run(spec), ConfigError);
  spec.shard_count = 2;
  spec.shard_index = 2;
  EXPECT_THROW(runner_.run(spec), ConfigError);

  campaign::CampaignSpec window = small_spec("loop", 8);
  window.window_lo = 0.9;
  window.window_hi = 0.1;
  EXPECT_THROW(runner_.run(window), ConfigError);
  window.window_lo = -0.5;
  window.window_hi = 0.5;
  EXPECT_THROW(runner_.run(window), ConfigError);
}

}  // namespace
