// Differential property harness for divergent multi-version execution
// (rse/dme.hpp, docs/security.md): two variants of the same guest under
// distinct MLR layout seeds must produce identical *canonical* traces on
// every fault-free run — across random program shapes, seed pairs, and both
// execution engines — while any corruption of a committed record must
// surface as a divergence.  False divergences would poison every --dme
// campaign's baseline; missed corruptions would erase the detector.  Every
// verdict here comes from dme::check_trace, the TraceChecker that also
// judges the campaign's baseline and every faulty run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "../support/random_program.hpp"
#include "campaign/runner.hpp"
#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "rse/dme.hpp"

namespace rse::dme {
namespace {

constexpr u64 kPrograms = 60;  // ≥ 50 program/seed-pair runs (ISSUE 10)

testing::RandomProgramOptions options_for(u64 seed) {
  testing::RandomProgramOptions options;
  options.with_calls = seed % 2 == 0;
  options.print_progress = seed % 3 == 0;
  options.attack_patterns = seed % 4 == 0;  // legal attack-shaped traffic
  return options;
}

/// Variant `mlr_seed` of `program` on a default machine, booted the way
/// every campaign run boots.
std::unique_ptr<campaign::BootedGuest> boot(const isa::Program& program, u64 mlr_seed) {
  campaign::WorkloadSetup setup;
  make_variant(setup.machine, setup.os, mlr_seed);
  return std::make_unique<campaign::BootedGuest>(setup, program, setup.os.run_limit);
}

CanonicalTrace record(const isa::Program& program, u64 mlr_seed) {
  return record_trace(boot(program, mlr_seed)->guest, program);
}

/// Re-run variant `mlr_seed` of `program` through the campaign's checker
/// against `reference`: the verdict a campaign baseline would get.
TraceChecker check(const isa::Program& program, u64 mlr_seed, const CanonicalTrace& reference) {
  return check_trace(boot(program, mlr_seed)->guest, program, reference);
}

/// Zero false divergences on fault-free runs: for every random program the
/// two MLR variants — one recorded through the fast-path engine, one
/// streamed through the checker on the cycle-accurate core — compare
/// canonically equal, and both finish with the same architectural result.
TEST(DmeProperty, FaultFreeRandomProgramsNeverDiverge) {
  u64 records_total = 0;
  for (u64 seed = 1; seed <= kPrograms; ++seed) {
    const std::string source = testing::generate_random_program(seed, options_for(seed));
    const isa::Program program = isa::assemble(source);
    const auto reference_variant = boot(program, /*mlr_seed=*/2 * seed + 1);
    const CanonicalTrace reference = record_trace(reference_variant->guest, program);
    const auto run = boot(program, /*mlr_seed=*/2 * seed + 2);
    const TraceChecker verdict =
        check_trace(run->guest, program, reference, /*prefer_fast=*/false);
    const os::GuestOs& ref_guest = reference_variant->guest;
    ASSERT_TRUE(ref_guest.finished()) << "seed " << seed;
    ASSERT_TRUE(run->guest.finished()) << "seed " << seed;
    EXPECT_EQ(run->guest.output(), ref_guest.output()) << "seed " << seed;
    EXPECT_EQ(run->guest.exit_code(), ref_guest.exit_code()) << "seed " << seed;

    EXPECT_EQ(verdict.divergences(), 0u)
        << "seed " << seed << ": false divergence at canonical record "
        << verdict.first_divergence() << " (of " << reference.records.size() << ")";
    EXPECT_EQ(verdict.position(), reference.records.size()) << "seed " << seed;
    records_total += verdict.position();
  }
  EXPECT_GT(records_total, 0u);
}

/// Engine parity: the same variant (same seed) recorded fast and streamed
/// cycle-accurately through the checker yields canonically identical
/// traces — the DME is a valid second consumer of the fast-path engine.
TEST(DmeProperty, FastAndCycleAccurateRecordingsAgree) {
  for (u64 seed = 1; seed <= 10; ++seed) {
    const std::string source = testing::generate_random_program(seed, options_for(seed));
    const isa::Program program = isa::assemble(source);
    const auto fast = boot(program, /*mlr_seed=*/seed);
    const CanonicalTrace fast_trace = record_trace(fast->guest, program);
    const auto slow = boot(program, /*mlr_seed=*/seed);
    const TraceChecker verdict =
        check_trace(slow->guest, program, fast_trace, /*prefer_fast=*/false);
    ASSERT_TRUE(fast->guest.finished() && slow->guest.finished()) << "seed " << seed;
    EXPECT_EQ(slow->guest.output(), fast->guest.output()) << "seed " << seed;
    EXPECT_EQ(verdict.divergences(), 0u)
        << "seed " << seed << ": engines disagree at record " << verdict.first_divergence();
    EXPECT_EQ(verdict.position(), fast_trace.records.size()) << "seed " << seed;
  }
}

/// Sensitivity: corrupting any single committed record of the reference —
/// the trace-level image of a register or data-word fault at that commit —
/// must flip the checker's verdict on a re-run to a divergence at exactly
/// that record.  Exercises every field the checker matches on (pc, raw
/// word, memory ea, value).
TEST(DmeProperty, CorruptedRecordsAlwaysDiverge) {
  Xorshift64 rng(0xD1FF);
  for (u64 seed = 1; seed <= 20; ++seed) {
    const std::string source = testing::generate_random_program(seed, options_for(seed));
    const isa::Program program = isa::assemble(source);
    const CanonicalTrace reference = record(program, /*mlr_seed=*/seed);
    const u64 run_seed = seed + 100;
    ASSERT_EQ(check(program, run_seed, reference).divergences(), 0u) << "seed " << seed;
    ASSERT_FALSE(reference.records.empty());

    for (int trial = 0; trial < 4; ++trial) {
      CanonicalTrace mutated = reference;
      const u64 index = rng.next_below(mutated.records.size());
      TraceRecord& victim = mutated.records[index];
      switch (trial) {
        case 0:
          victim.pc ^= 0x4;  // control-flow fault: wrong committed pc
          break;
        case 1:
          victim.raw ^= 1u << rng.next_below(32);  // instruction-word fault
          break;
        case 2:
          // Value fault: both the raw and canonical views change (a real
          // corrupted commit changes the value wherever it is rebased to).
          // Values are canonical identity only on memory records — a non-mem
          // record is already fully pinned by its pc + raw word.
          if ((victim.flags & kFlagMem) == 0) continue;
          victim.value ^= 0x80001;
          victim.value_canon ^= 0x80001;
          break;
        case 3:
          if ((victim.flags & kFlagMem) == 0) continue;  // ea only on mem records
          victim.ea ^= 0x40;
          victim.ea_canon ^= 0x40;
          break;
      }
      const TraceChecker verdict = check(program, run_seed, mutated);
      EXPECT_EQ(verdict.divergences(), 1u)
          << "seed " << seed << " trial " << trial << ": corrupted record " << index
          << " went unnoticed";
      EXPECT_EQ(verdict.first_divergence(), index)
          << "seed " << seed << " trial " << trial << ": divergence not at the fault";
    }
  }
}

/// The checker's end-of-trace rules.  A truncated reference (record cap hit
/// while recording) must never flag a divergence for records past its end —
/// the comparison is inconclusive, not divergent — while a *finished*
/// reference that simply ends earlier than the run is a divergence at the
/// boundary, and a finished reference longer than the run is a divergence
/// at the run's end.
TEST(DmeProperty, TruncatedReferenceIsInconclusiveNotDivergent) {
  const std::string source = testing::generate_random_program(3, options_for(3));
  const isa::Program program = isa::assemble(source);
  const CanonicalTrace reference = record(program, 5);
  ASSERT_GT(reference.records.size(), 8u);

  CanonicalTrace cut = reference;
  cut.records.resize(cut.records.size() / 2);
  cut.truncated = true;
  EXPECT_EQ(check(program, 6, cut).divergences(), 0u)
      << "records past a truncated reference are not evidence of divergence";

  cut.truncated = false;  // same prefix, but claiming the program ended there
  const TraceChecker early = check(program, 6, cut);
  EXPECT_EQ(early.divergences(), 1u);
  EXPECT_EQ(early.first_divergence(), cut.records.size());

  CanonicalTrace longer = reference;  // one record the run never commits
  longer.records.push_back(reference.records.back());
  const TraceChecker late = check(program, 6, longer);
  EXPECT_EQ(late.divergences(), 1u) << "the run ended before a finished reference did";
  EXPECT_EQ(late.first_divergence(), reference.records.size());
}

/// End-to-end flip property on campaign workloads: with --dme layered onto
/// fault-injection campaigns, every injected fault is masked, detected by a
/// module, a crash/hang — or caught by the trace diff.  Silent data
/// corruption is impossible by construction: a wrong final output requires
/// a wrong committed value, and a wrong committed value IS a canonical
/// divergence.
TEST(DmeProperty, InjectedFaultsFlipToDivergenceOrModuleDetection) {
  campaign::CampaignRunner runner;
  u32 dme_detections = 0;
  for (const char* workload : {"loop", "calls"}) {
    campaign::CampaignSpec spec;
    spec.workload = workload;
    spec.runs = 48;
    spec.seed = 11;
    spec.jobs = 2;
    spec.dme = true;
    const campaign::CampaignReport report = runner.run(spec);
    EXPECT_EQ(report.by_outcome[static_cast<unsigned>(campaign::Outcome::kSdc)], 0u)
        << workload << ": a fault corrupted the output without any detection";
    dme_detections +=
        report.by_outcome[static_cast<unsigned>(campaign::Outcome::kDetectedDme)];
  }
  EXPECT_GT(dme_detections, 0u) << "no fault was caught by the trace diff alone";
}

}  // namespace
}  // namespace rse::dme
