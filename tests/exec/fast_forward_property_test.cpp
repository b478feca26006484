// Fast-forward eligibility property harness: randomized guest programs pin
// the campaign fast path against the classic path for every fast-forward-
// eligible fault class — register bits, instruction words, data words, and
// yielding programs, whose prefixes fall back at their first yield — plus
// windowed-campaign digest invariance on the shipped workloads.
//
// For each random program the harness replicates exactly what
// CampaignRunner::run does under --fast-forward: one instrumented replay
// maps the plan's injection cycles to boundaries (positions + in-flight
// ranges), then every record runs once
// classically and once through run_one_fast_forward.  The classified
// outcome and fault_applied — the per-run digest content — must match
// record-for-record; which path a run took must never show.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../support/random_program.hpp"
#include "campaign/golden.hpp"
#include "campaign/runner.hpp"
#include "exec/fast_forward.hpp"

namespace rse {
namespace {

using testing::RandomProgramOptions;
using testing::generate_random_program;

// Aggregated across the whole binary so the trailing coverage test can
// assert the fast path was genuinely exercised (not satisfied vacuously by
// every record falling back to classic).  Yielding programs stay out: their
// prefixes fall back at the first yield by design, and their test checks
// that per run.
campaign::FastForwardStats g_accum;
u64 g_programs = 0;

void accumulate(const campaign::FastForwardStats& stats) {
  g_accum.fast += stats.fast;
  g_accum.fallback_target += stats.fallback_target;
  g_accum.fallback_unmapped += stats.fallback_unmapped;
  g_accum.fallback_conflict += stats.fallback_conflict;
  g_accum.fallback_checked += stats.fallback_checked;
  g_accum.fallback_syscall += stats.fallback_syscall;
  g_accum.fallback_illegal += stats.fallback_illegal;
  g_accum.fallback_other += stats.fallback_other;
  ++g_programs;
}

/// Classic vs fast-forward differential over one random program: every
/// record of a small plan for `target` must classify identically.  The
/// program's fallback accounting lands in `stats`.
void expect_fast_forward_matches_classic(u64 seed, campaign::InjectTarget target,
                                         const RandomProgramOptions& options,
                                         campaign::FastForwardStats* stats) {
  campaign::WorkloadSetup setup;
  setup.name = "random-ff";
  setup.source = generate_random_program(seed, options);
  const campaign::GoldenRun golden = campaign::simulate_golden(setup);
  ASSERT_GT(golden.cycles, 0u);

  campaign::CampaignSpec spec;
  spec.workload = setup.name;
  spec.runs = 6;
  spec.seed = seed;
  spec.targets = {target};

  campaign::CampaignRunner runner;
  const campaign::InjectionPlan plan = runner.plan_for(spec, golden, setup);
  const Cycle budget = static_cast<Cycle>(static_cast<double>(golden.cycles) * 8.0) + 20'000;

  // The instrumented replay, exactly as CampaignRunner::run stages it.
  std::vector<Cycle> cycles;
  for (u32 i = 0; i < spec.runs; ++i) cycles.push_back(plan.record(i).inject_cycle);
  exec::FastForwardController::BoundaryMap boundaries;
  {
    os::OsConfig os_config = setup.os;
    os_config.run_limit = budget;
    os::Machine machine(setup.machine);
    os::GuestOs guest(machine, os_config);
    guest.load(golden.program);
    boundaries = exec::FastForwardController::map_boundaries(guest, std::move(cycles));
  }

  for (u32 i = 0; i < spec.runs; ++i) {
    const campaign::InjectionRecord record = plan.record(i);
    const campaign::RunResult classic =
        runner.run_one_with_budget(setup, golden, record, budget);
    const campaign::RunResult fast =
        runner.run_one_fast_forward(setup, golden, record, budget, boundaries);
    EXPECT_EQ(fast.outcome, classic.outcome)
        << "seed " << seed << ", run " << i << ": " << campaign::describe(record);
    EXPECT_EQ(fast.fault_applied, classic.fault_applied)
        << "seed " << seed << ", run " << i << ": " << campaign::describe(record);
  }
  *stats = runner.fast_forward_stats();
}

void expect_fast_forward_matches_classic(u64 seed, campaign::InjectTarget target,
                                         const RandomProgramOptions& options) {
  campaign::FastForwardStats stats;
  expect_fast_forward_matches_classic(seed, target, options, &stats);
  accumulate(stats);
}

class FastForwardInstrWord : public ::testing::TestWithParam<u64> {};

TEST_P(FastForwardInstrWord, OutcomeMatchesClassicForEveryRecord) {
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.print_progress = true;
  expect_fast_forward_matches_classic(GetParam(), campaign::InjectTarget::kInstructionWord,
                                      options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastForwardInstrWord, ::testing::Range<u64>(6000, 6050));

class FastForwardDataWord : public ::testing::TestWithParam<u64> {};

TEST_P(FastForwardDataWord, OutcomeMatchesClassicForEveryRecord) {
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.print_progress = true;
  expect_fast_forward_matches_classic(GetParam(), campaign::InjectTarget::kDataWord, options);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastForwardDataWord, ::testing::Range<u64>(6100, 6150));

class FastForwardResumePrefix : public ::testing::TestWithParam<u64> {};

TEST_P(FastForwardResumePrefix, OutcomeMatchesClassicForEveryRecord) {
  // Yielding programs: yield is outside the strict whitelist, so a prefix
  // that reaches one bails and the run falls back as `syscall`; prefixes
  // that end before the first yield stay fast.  Either way the
  // classification must match, and a yield is the only reason a mapped
  // prefix falls back.
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.yield_points = true;
  options.print_progress = true;
  campaign::FastForwardStats stats;
  expect_fast_forward_matches_classic(GetParam(), campaign::InjectTarget::kRegisterBit, options,
                                      &stats);
  EXPECT_EQ(stats.fast + stats.fallback_syscall + stats.fallback_unmapped, 6u)
      << "fast " << stats.fast << ", syscall " << stats.fallback_syscall << ", unmapped "
      << stats.fallback_unmapped << ", other " << stats.fallback_other;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastForwardResumePrefix, ::testing::Range<u64>(6200, 6250));

/// Global-environment teardown runs after every test: the differentials are
/// only meaningful if a healthy share of records genuinely took the fast
/// path rather than all falling back, so assert it once at the end.
class FastPathCoverageEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    if (g_programs == 0) return;  // suites filtered out of this invocation
    EXPECT_GE(g_accum.fast, g_programs)
        << "fewer fast-path runs than programs — eligibility has regressed "
        << "(fallbacks: target " << g_accum.fallback_target << ", unmapped "
        << g_accum.fallback_unmapped << ", conflict " << g_accum.fallback_conflict
        << ", checked " << g_accum.fallback_checked
        << ", syscall " << g_accum.fallback_syscall << ", illegal " << g_accum.fallback_illegal
        << ", other " << g_accum.fallback_other << ")";
    EXPECT_EQ(g_accum.fallback_target, 0u);   // no config faults in these plans
    EXPECT_EQ(g_accum.fallback_illegal, 0u);  // fault-free prefixes never trap
  }
};

const ::testing::Environment* const g_coverage_env =
    ::testing::AddGlobalTestEnvironment(new FastPathCoverageEnvironment);

// ------------------------------------------------------- windowed campaigns

class FastForwardWindowedDigest
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(FastForwardWindowedDigest, DigestMatchesClassicAcrossWindows) {
  // --fast-forward x --window: extreme windows drive boundaries toward the
  // run's edges — a high window puts injection cycles past where the replay
  // can map them (unmapped fallback), a low one stacks them onto the first
  // instructions.  The digest must stay byte-identical either way.
  const auto [lo, hi] = GetParam();
  campaign::CampaignSpec spec;
  spec.workload = "loop";
  spec.runs = 24;
  spec.seed = 77;
  spec.jobs = 2;
  spec.window_lo = lo;
  spec.window_hi = hi;

  campaign::CampaignRunner runner;  // shared golden cache across both runs
  const campaign::CampaignReport classic = runner.run_from_reset(spec);
  spec.fast_forward = true;
  const campaign::CampaignReport fast = runner.run(spec);
  EXPECT_EQ(campaign::deterministic_digest(fast), campaign::deterministic_digest(classic));
}

INSTANTIATE_TEST_SUITE_P(Windows, FastForwardWindowedDigest,
                         ::testing::Values(std::make_pair(0.0, 0.05),
                                           std::make_pair(0.45, 0.55),
                                           std::make_pair(0.95, 1.0)));

TEST(FastForwardWindowedDigest, IcmCheckedInstrFaultsFallBackAndDigestMatches) {
  // Regression: an instruction-word fault on an ICM-checked instruction
  // (kmeans is chk-instrumented) is detected through *speculative* dispatch
  // — classic runs saw wrong-path fetches of the corrupted word that a
  // transplanted (empty-pipeline) core never makes, flipping detected_icm
  // to masked under --fast-forward.  Such records must take the classic
  // path (fallback_checked) and the digest must stay byte-identical.
  campaign::CampaignSpec spec;
  spec.workload = "kmeans";
  spec.runs = 32;
  spec.seed = 7;
  spec.jobs = 2;
  spec.targets = {campaign::InjectTarget::kInstructionWord,
                  campaign::InjectTarget::kDataWord};
  spec.window_lo = 0.85;
  spec.window_hi = 1.0;

  campaign::CampaignRunner runner;
  const campaign::CampaignReport classic = runner.run_from_reset(spec);
  spec.fast_forward = true;
  const campaign::CampaignReport fast = runner.run(spec);
  EXPECT_EQ(campaign::deterministic_digest(fast), campaign::deterministic_digest(classic));
  const campaign::FastForwardStats ff = runner.fast_forward_stats();
  EXPECT_GT(ff.fast, 0u);
  EXPECT_GT(ff.fallback_checked, 0u);  // the eligibility rule actually fired
}

TEST(FastForwardWindowedDigest, CallsWorkloadLateWindowMatchesClassic) {
  // Second workload shape for the windowed audit: call/return dominated,
  // late window (boundary-unmapped heavy).
  campaign::CampaignSpec spec;
  spec.workload = "calls";
  spec.runs = 16;
  spec.seed = 99;
  spec.jobs = 2;
  spec.window_lo = 0.9;
  spec.window_hi = 1.0;

  campaign::CampaignRunner runner;
  const campaign::CampaignReport classic = runner.run_from_reset(spec);
  spec.fast_forward = true;
  const campaign::CampaignReport fast = runner.run(spec);
  EXPECT_EQ(campaign::deterministic_digest(fast), campaign::deterministic_digest(classic));
}

}  // namespace
}  // namespace rse
