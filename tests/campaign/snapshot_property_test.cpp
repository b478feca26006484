// Whole-machine snapshot/restore property harness (docs/campaigns.md).
//
// For randomized guest programs, the suite proves the os::MachineSnapshot
// round trip is bit-exact in both directions:
//  - capture is non-perturbing: the captured machine, run on to completion,
//    finishes identically to an uninterrupted reference run;
//  - restore is exact: a fresh machine/guest pair restored from the
//    snapshot matches the captured machine's register file, PC, cycle, and
//    memory image immediately, and — run to completion — finishes
//    bit-identically to the reference (registers, memory digest, output,
//    exit code, instruction counts, module statistics).
// Snapshot points sweep the reference run's cycle buckets.  Every
// default-fork campaign's chain, built twice, must be the same bytes.  The
// campaign-level test pins the digest of run(), which forks every run by
// default, to the from-reset campaign's across bucket counts, with
// --fast-forward both off and on.  DME campaigns fork too: a forked run's trace checker starts
// at the snapshot's commit-record count, which must equal what a from-reset
// run delivers to the commit observer by then, and a forked DME campaign
// must reproduce the from-reset one run for run.  Last, run()'s default
// prefix is pinned on every workload: each run forks, and each equals the
// from-reset run, cycles included; and under --fast-forward each run that
// does not take the fast prefix forks, and equals the same fallback started
// from reset.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "campaign/runner.hpp"
#include "isa/assembler.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"
#include "os/snapshot.hpp"
#include "../support/random_program.hpp"

using namespace rse;

namespace {

constexpr Cycle kRunLimit = 400'000;

struct HarnessConfig {
  rse::testing::RandomProgramOptions program;  // qualified: ::testing is gtest's
  bool framework = false;
  std::vector<isa::ModuleId> enables;

  os::OsConfig os_config() const {
    os::OsConfig config;
    config.run_limit = kRunLimit;
    return config;
  }
};

/// Everything the end of a run determines.  Two bit-identical executions
/// must agree on every field.
struct FinalState {
  Cycle cycles = 0;
  std::array<Word, isa::kNumRegs> regs{};
  Addr pc = 0;
  u64 memory_digest = 0;
  std::string output;
  int exit_code = 0;
  bool finished = false;
  cpu::CoreStats core{};
  modules::IcmStats icm{};
  modules::CfcStats cfc{};
};

os::Machine make_machine(const HarnessConfig& config) {
  os::MachineConfig mc;
  mc.framework_present = config.framework;
  return os::Machine(mc);
}

void step_until_done(os::Machine& machine, os::GuestOs& guest, Cycle limit) {
  while (!guest.finished() && machine.now() < limit) guest.step();
}

FinalState observe(os::Machine& machine, os::GuestOs& guest) {
  FinalState state;
  state.cycles = machine.now();
  for (unsigned r = 0; r < isa::kNumRegs; ++r) state.regs[r] = machine.core().reg(static_cast<u8>(r));
  state.pc = machine.core().pc();
  state.memory_digest = os::MachineSnapshot::memory_digest(machine.memory());
  state.output = guest.output();
  state.exit_code = guest.exit_code();
  state.finished = guest.finished();
  state.core = machine.core().stats();
  if (machine.icm() != nullptr) state.icm = machine.icm()->stats();
  if (machine.cfc() != nullptr) state.cfc = machine.cfc()->stats();
  return state;
}

void expect_identical(const FinalState& a, const FinalState& b, const std::string& what) {
  EXPECT_EQ(a.cycles, b.cycles) << what;
  EXPECT_EQ(a.regs, b.regs) << what;
  EXPECT_EQ(a.pc, b.pc) << what;
  EXPECT_EQ(a.memory_digest, b.memory_digest) << what;
  EXPECT_EQ(a.output, b.output) << what;
  EXPECT_EQ(a.exit_code, b.exit_code) << what;
  EXPECT_EQ(a.finished, b.finished) << what;
  // The stats structs are all-u64 aggregates, so memcmp equality is exact
  // field equality without naming every counter.
  EXPECT_EQ(0, std::memcmp(&a.core, &b.core, sizeof(a.core))) << what << " (core stats)";
  EXPECT_EQ(0, std::memcmp(&a.icm, &b.icm, sizeof(a.icm))) << what << " (icm stats)";
  EXPECT_EQ(0, std::memcmp(&a.cfc, &b.cfc, sizeof(a.cfc))) << what << " (cfc stats)";
}

/// One snapshot round trip at roughly `fraction` of the reference run.
void check_round_trip(const HarnessConfig& config, const isa::Program& program,
                      const FinalState& reference, double fraction, const std::string& what) {
  const Cycle point = static_cast<Cycle>(static_cast<double>(reference.cycles) * fraction);

  os::Machine captured_machine = make_machine(config);
  os::GuestOs captured(captured_machine, config.os_config());
  captured.load(program);
  for (isa::ModuleId id : config.enables) captured.enable_module(id);
  while (!captured.finished() && captured_machine.now() < point) captured.step();
  while (!captured.finished() && captured_machine.now() < kRunLimit &&
         !os::MachineSnapshot::quiescent(captured_machine)) {
    captured.step();
  }
  if (captured.finished()) return;  // bucket past the end of this program
  ASSERT_TRUE(os::MachineSnapshot::quiescent(captured_machine)) << what;
  const os::MachineSnapshot snapshot = os::MachineSnapshot::capture(captured_machine, captured);
  const FinalState at_capture = observe(captured_machine, captured);

  // Restore into a fresh pair and compare the immediate state.
  os::Machine restored_machine = make_machine(config);
  os::GuestOs restored(restored_machine, config.os_config());
  restored.load(program);
  for (isa::ModuleId id : config.enables) restored.enable_module(id);
  os::MachineSnapshot::restore(snapshot, restored_machine, restored);
  expect_identical(at_capture, observe(restored_machine, restored), what + " at capture point");

  // Both the captured machine (capture must not perturb) and the restored
  // one must finish exactly like the uninterrupted reference.
  step_until_done(captured_machine, captured, kRunLimit);
  step_until_done(restored_machine, restored, kRunLimit);
  expect_identical(reference, observe(captured_machine, captured), what + " captured-run end");
  expect_identical(reference, observe(restored_machine, restored), what + " restored-run end");
}

void run_property_suite(const HarnessConfig& config, unsigned programs, u64 seed_base) {
  unsigned snapshotted = 0;
  for (unsigned i = 0; i < programs; ++i) {
    const u64 seed = seed_base + i;
    const std::string source = rse::testing::generate_random_program(seed, config.program);
    const isa::Program program = isa::assemble(source);

    os::Machine ref_machine = make_machine(config);
    os::GuestOs ref_guest(ref_machine, config.os_config());
    ref_guest.load(program);
    for (isa::ModuleId id : config.enables) ref_guest.enable_module(id);
    step_until_done(ref_machine, ref_guest, kRunLimit);
    ASSERT_TRUE(ref_guest.finished()) << "random program " << seed << " hit the run limit";
    const FinalState reference = observe(ref_machine, ref_guest);

    // Sweep the snapshot point across cycle buckets: each seed exercises a
    // different quarter, and a handful of seeds exercise all three.
    std::vector<double> fractions{0.25 * static_cast<double>(1 + (i % 3))};
    if (i < 4) fractions = {0.25, 0.5, 0.75};
    for (double fraction : fractions) {
      check_round_trip(config, program, reference, fraction,
                       "seed " + std::to_string(seed) + " @" + std::to_string(fraction));
      ++snapshotted;
    }
  }
  // The sweep must actually test something: nearly every program is long
  // enough to snapshot mid-run.
  EXPECT_GE(snapshotted, programs);
}

TEST(SnapshotPropertyTest, PlainCoreRoundTripsBitExactly) {
  HarnessConfig config;
  config.program.with_memory = true;
  config.program.with_loops = true;
  run_property_suite(config, 50, 1000);
}

TEST(SnapshotPropertyTest, FrameworkAndModulesRoundTripBitExactly) {
  HarnessConfig config;
  config.framework = true;
  config.enables = {isa::ModuleId::kIcm, isa::ModuleId::kCfc};
  config.program.with_memory = true;
  config.program.with_loops = true;
  config.program.with_calls = true;
  run_property_suite(config, 50, 2000);
}

TEST(SnapshotPropertyTest, MidRunOutputRoundTripsBitExactly) {
  HarnessConfig config;
  config.framework = true;
  config.enables = {isa::ModuleId::kIcm};
  config.program.with_memory = true;
  config.program.print_progress = true;
  run_property_suite(config, 50, 3000);
}

// Campaign-level pin: run()'s checkpoint-fork must not move the from-reset
// campaign's deterministic digest across bucket counts, and neither may
// --fast-forward, which run() takes instead of forking.  The chain comes
// from one from-reset pass, so every fault target forks from a cycle-exact
// snapshot.  The register-only arms are the sensitive
// ones: a chain that is only architecturally exact (a fast-forwarded prefix
// transplanted into an empty pipeline) shifts where a register flip lands,
// which moves loop's digest at seed 1 (4, 8 and 13 buckets) and at seed 11
// (13 buckets), while the all-target arm at seed 11 does not notice.
TEST(SnapshotPropertyTest, CheckpointForkDigestInvariantAcrossBucketsAndFastForward) {
  using campaign::InjectTarget;
  campaign::GoldenCache cache;
  campaign::CampaignRunner runner(&cache);
  const std::vector<InjectTarget> all_targets = campaign::CampaignSpec{}.targets;
  const std::vector<InjectTarget> registers = {InjectTarget::kRegisterBit};
  const struct {
    std::vector<InjectTarget> targets;
    u64 seed;
  } arms[] = {{all_targets, 11}, {registers, 1}, {registers, 11}};

  for (const auto& arm : arms) {
    campaign::CampaignSpec spec;
    spec.workload = "loop";
    spec.runs = 32;
    spec.seed = arm.seed;
    spec.jobs = 2;
    spec.targets = arm.targets;
    const std::string baseline = campaign::deterministic_digest(runner.run_from_reset(spec));

    for (const u32 buckets : {1u, 4u, 8u, 13u}) {
      for (const bool fast_forward : {false, true}) {
        campaign::CampaignSpec fork_spec = spec;
        fork_spec.snapshot_buckets = buckets;
        fork_spec.fast_forward = fast_forward;
        EXPECT_EQ(baseline, campaign::deterministic_digest(runner.run(fork_spec)))
            << "targets=" << arm.targets.size() << " seed=" << arm.seed
            << " buckets=" << buckets << " fast_forward=" << fast_forward;
      }
    }
  }
}

/// The DME campaign spec the fork tests share.
campaign::CampaignSpec dme_spec(const char* workload, u32 runs) {
  campaign::CampaignSpec spec;
  spec.workload = workload;
  spec.runs = runs;
  spec.seed = 1;
  spec.jobs = 2;
  spec.dme = true;
  return spec;
}

/// At every snapshot of `setup`'s chain, the restored machine's
/// commit_records() equals the records a from-reset run has delivered to
/// the commit observer by the snapshot's cycle.  Returns the from-reset
/// run's illegal traps at the last snapshot.
u64 expect_commit_records_match(const campaign::WorkloadSetup& setup) {
  campaign::CampaignRunner runner;
  const auto golden = runner.cache().get(setup);
  const Cycle budget = golden->cycles * 8 + 20'000;
  const campaign::SnapshotChain chain =
      runner.build_snapshot_chain(setup, *golden, campaign::CampaignSpec{}, budget, false);
  EXPECT_GE(chain.snaps.size(), 4u) << setup.name;

  campaign::BootedGuest reset(setup, golden->program, budget, golden->analysis);
  u64 records = 0;
  reset.machine.core().set_commit_observer(
      [&records](Cycle, const engine::CommitInfo&) { ++records; });
  for (const os::MachineSnapshot& snap : chain.snaps) {
    EXPECT_TRUE(reset.guest.run_until(snap.at)) << setup.name;
    campaign::BootedGuest fork(setup, golden->program, budget, golden->analysis);
    os::MachineSnapshot::restore(snap, fork.machine, fork.guest);
    EXPECT_EQ(campaign::commit_records(fork.machine, fork.guest), records)
        << setup.name << " at cycle " << snap.at;
  }
  return reset.guest.stats().illegal_traps;
}

TEST(SnapshotPropertyTest, RestoredCommitRecordsMatchAFromResetRunsObserver) {
  // Instrumented (CHK), multithreaded and plain workloads, each as the
  // randomized DME variant A that a DME campaign's chain captures.
  for (const char* workload : {"loop", "server", "attack-chk"}) {
    campaign::CampaignSpec spec = dme_spec(workload, 1);
    expect_commit_records_match(campaign::CampaignRunner::setup_for(spec));
  }
  // A worker that jumps out of text commits an invalid word, which the OS
  // takes as an illegal trap; the DDT recovers the thread and main goes on.
  campaign::WorkloadSetup trap;
  trap.name = "illegal-worker";
  trap.source = R"(
.data
nowhere: .word 0
.text
main:
  la a0, worker
  li v0, 6
  syscall
  li v0, 8
  syscall
  li t0, 0
  li t1, 4000
spin:
  addi t0, t0, 1
  blt t0, t1, spin
  li a0, 0
  li v0, 1
  syscall
worker:
  la t2, nowhere
  jr t2
)";
  trap.machine.framework_present = true;
  trap.host_enables = {isa::ModuleId::kDdt};
  EXPECT_GE(expect_commit_records_match(trap), 1u) << "the worker never trapped";
}

TEST(SnapshotPropertyTest, ForkedDmeCampaignMatchesFromReset) {
  // attack-heap's fault-free variants diverge, so its runs must all start
  // from reset; every other workload here forks most of its runs.
  campaign::GoldenCache cache;
  campaign::CampaignRunner runner(&cache);
  for (const char* workload : {"loop", "attack-chk", "benign-heap", "attack-heap"}) {
    const campaign::CampaignSpec spec = dme_spec(workload, 32);
    const campaign::CampaignReport reset = runner.run_from_reset(spec);
    const campaign::CampaignReport forked = runner.run(spec);
    EXPECT_EQ(runner.forked_runs() == 0, std::string(workload) == "attack-heap") << workload;
    EXPECT_EQ(campaign::deterministic_digest(forked), campaign::deterministic_digest(reset))
        << workload;
    EXPECT_EQ(forked.results, reset.results) << workload;

    const campaign::WorkloadSetup setup = campaign::CampaignRunner::setup_for(spec);
    const auto golden = cache.get(setup);
    const Cycle budget = golden->cycles * 8 + 20'000;
    const campaign::SnapshotChain chain =
        runner.build_snapshot_chain(setup, *golden, spec, budget, false);
    ASSERT_FALSE(chain.snaps.empty()) << workload;
    u32 forkable = 0;
    for (const campaign::RunResult& r : reset.results) {
      if (r.record.inject_cycle >= chain.snaps.front().at) ++forkable;
    }
    EXPECT_GE(forkable, 16u) << workload << ": too few runs would fork to test anything";
  }
}

/// One campaign of the default-prefix pin: a workload, with both static
/// tables or with DME.  The fast-forward pin adds a campaign with CI
/// refinement (`refine`).
struct DefaultForkCase {
  std::string workload;
  bool static_tables = false;
  bool dme = false;
  bool refine = false;
};

void PrintTo(const DefaultForkCase& param, std::ostream* os) {
  *os << param.workload << (param.static_tables ? " --static-cfc --static-ddt" : "")
      << (param.dme ? " --dme" : "") << (param.refine ? " --ci-threshold 0.1" : "");
}

std::string case_name(const ::testing::TestParamInfo<DefaultForkCase>& info) {
  std::string name = info.param.workload;
  std::replace(name.begin(), name.end(), '-', '_');
  if (info.param.static_tables) name += "_static";
  if (info.param.dme) name += "_dme";
  if (info.param.refine) name += "_ci";
  return name;
}

/// The 16-run campaign both prefix pins run for a case.
campaign::CampaignSpec case_spec(const DefaultForkCase& param) {
  campaign::CampaignSpec spec;
  spec.workload = param.workload;
  spec.runs = 16;
  spec.seed = 1;
  spec.jobs = 2;
  spec.hang_factor = 2.0;  // a hung run costs about two golden runs
  spec.static_cfc = param.static_tables;
  spec.static_ddt = param.static_tables;
  spec.dme = param.dme;
  if (param.refine) {
    spec.ci_threshold = 0.1;
    spec.ci_batch = 8;
    spec.ci_max_runs = 32;
  }
  return spec;
}

std::vector<DefaultForkCase> default_fork_cases() {
  std::vector<DefaultForkCase> cases;
  for (const std::string& name : campaign::workload_names()) cases.push_back({name});
  cases.push_back({"calls", true});
  cases.push_back({"server", true});
  cases.push_back({"loop", false, true});
  return cases;
}

TEST(SnapshotPropertyTest, ChainBytesDependOnlyOnTheRun) {
  // A snapshot holds value state only, never padding or union bytes no
  // member owns: two chains of one campaign, built back to back in one
  // process, are byte-identical.  Every default-fork campaign is checked, so
  // each struct a snapshot copies raw is checked on a chain that holds it.
  for (const DefaultForkCase& param : default_fork_cases()) {
    SCOPED_TRACE(::testing::PrintToString(param));
    campaign::CampaignSpec spec;
    spec.workload = param.workload;
    spec.static_cfc = param.static_tables;
    spec.static_ddt = param.static_tables;
    spec.dme = param.dme;
    campaign::CampaignRunner runner;
    const campaign::WorkloadSetup setup = campaign::CampaignRunner::setup_for(spec);
    const auto golden = runner.cache().get(setup);
    const Cycle budget = golden->cycles * 8 + 20'000;
    const campaign::SnapshotChain first =
        runner.build_snapshot_chain(setup, *golden, spec, budget, false);
    const campaign::SnapshotChain second =
        runner.build_snapshot_chain(setup, *golden, spec, budget, false);
    // The chk pair's bucket bounds share quiescent cycles: 5 snapshots.
    const bool chk = param.workload.ends_with("-chk");
    ASSERT_EQ(first.snaps.size(), chk ? 5u : spec.snapshot_buckets);
    ASSERT_EQ(second.snaps.size(), first.snaps.size());
    for (std::size_t i = 0; i < first.snaps.size(); ++i) {
      const std::vector<u8>& a = first.snaps[i].bytes;
      const std::vector<u8>& b = second.snaps[i].bytes;
      EXPECT_EQ(first.snaps[i].at, second.snaps[i].at);
      ASSERT_EQ(a.size(), b.size()) << "snapshot " << i;
      std::size_t differing = 0;
      for (std::size_t k = 0; k < a.size(); ++k) differing += a[k] != b[k];
      EXPECT_EQ(differing, 0u) << "snapshot " << i << " of " << a.size() << " bytes";
    }
  }
}

class DefaultForkProperty : public ::testing::TestWithParam<DefaultForkCase> {};

// run() forks every run from the golden run's snapshot chain, whose first
// snapshot is at cycle 0 on every workload, and each forked run must be the
// from-reset run: outcome, fault_applied and cycles.
TEST_P(DefaultForkProperty, RunForksEveryRunAndMatchesRunFromReset) {
  const campaign::CampaignSpec spec = case_spec(GetParam());
  campaign::CampaignRunner runner;
  const campaign::CampaignReport reset = runner.run_from_reset(spec);
  EXPECT_EQ(runner.forked_runs(), 0u);
  const campaign::CampaignReport forked = runner.run(spec);
  EXPECT_EQ(runner.forked_runs(), spec.runs);
  ASSERT_EQ(forked.results.size(), reset.results.size());
  for (std::size_t i = 0; i < reset.results.size(); ++i) {
    EXPECT_EQ(forked.results[i].outcome, reset.results[i].outcome) << "run " << i;
    EXPECT_EQ(forked.results[i].fault_applied, reset.results[i].fault_applied) << "run " << i;
    EXPECT_EQ(forked.results[i].cycles, reset.results[i].cycles) << "run " << i;
    EXPECT_EQ(forked.results[i], reset.results[i]) << "run " << i;
  }
  EXPECT_EQ(campaign::deterministic_digest(forked), campaign::deterministic_digest(reset));
}

INSTANTIATE_TEST_SUITE_P(Campaigns, DefaultForkProperty, ::testing::ValuesIn(default_fork_cases()),
                         case_name);

std::vector<DefaultForkCase> fast_forward_fork_cases() {
  std::vector<DefaultForkCase> cases = default_fork_cases();
  cases.push_back({"loop", false, false, true});  // refinement runs fork
  return cases;
}

std::array<u64, 9> counts_of(const campaign::FastForwardStats& s) {
  return {s.fast,           s.fallback_target,  s.fallback_unmapped,
          s.fallback_conflict, s.fallback_checked, s.fallback_syscall,
          s.fallback_suspend,  s.fallback_illegal, s.fallback_other};
}

class FastForwardForkProperty : public ::testing::TestWithParam<DefaultForkCase> {};

// Under --fast-forward, run() forks every run it offers a fast-engine prefix
// but cannot fast-forward (a config fault, an unmapped cycle, an in-flight
// conflict, an ICM-checked word, a fast-engine bail) from the latest chain
// snapshot.  Each must be the run run_one_fast_forward starts from reset
// with the same boundaries: outcome, fault_applied and cycles.  Every chain
// starts at cycle 0, so every fallback forks.
TEST_P(FastForwardForkProperty, ForkedFallbacksMatchFallbacksFromReset) {
  const DefaultForkCase& param = GetParam();
  campaign::CampaignSpec spec = case_spec(param);
  spec.fast_forward = true;
  campaign::CampaignRunner runner;
  const campaign::CampaignReport reset = runner.run_from_reset(spec);
  const campaign::CampaignReport report = runner.run(spec);
  const campaign::FastForwardStats ff = runner.fast_forward_stats();
  EXPECT_EQ(campaign::deterministic_digest(report), campaign::deterministic_digest(reset));
  if (param.refine) {
    EXPECT_GT(report.results.size(), spec.runs) << "no refinement run";
  }

  // run()'s inputs, rebuilt as run() builds them: the golden run with its
  // DME baseline, the hang budget and the boundaries of the plan's eligible
  // cycles.
  const campaign::WorkloadSetup setup = campaign::CampaignRunner::setup_for(spec);
  campaign::GoldenRun golden = *runner.cache().get(setup);
  const Cycle budget =
      static_cast<Cycle>(static_cast<double>(golden.cycles) * spec.hang_factor) + 20'000;
  dme::CanonicalTrace trace;
  if (spec.dme) {
    const Cycle limit = std::min<Cycle>(setup.os.run_limit, budget);
    campaign::WorkloadSetup setup_b = setup;
    dme::make_variant(setup_b.machine, setup_b.os, spec.dme_seed_b);
    campaign::BootedGuest variant_b(setup_b, golden.program, limit, golden.analysis);
    trace = dme::record_trace(variant_b.guest, golden.program);
    campaign::BootedGuest variant_a(setup, golden.program, limit, golden.analysis);
    const dme::TraceChecker baseline = dme::check_trace(variant_a.guest, golden.program, trace);
    golden.dme_divergences = baseline.divergences();
    golden.dme_first_divergence = baseline.first_divergence();
  }
  if (golden.icm_mismatches != 0 || golden.cfc_violations != 0 || golden.selfcheck_trips != 0 ||
      golden.os_recoveries != 0 || golden.ddt_footprint_violations != 0 ||
      golden.dme_divergences != 0) {
    // Detector activity in the fault-free run: no run is offered a fast
    // prefix, and every run forks.
    EXPECT_EQ(ff.fast + ff.fallbacks(), 0u);
    EXPECT_EQ(runner.forked_runs(), report.results.size());
    EXPECT_EQ(report.results, reset.results);
    return;
  }
  const campaign::InjectionPlan plan = runner.plan_for(spec, golden, setup);
  std::vector<Cycle> cycles;
  for (u32 i = 0; i < spec.runs; ++i) {
    const campaign::InjectionRecord record = plan.record(i);
    if (record.target != campaign::InjectTarget::kConfigBit) cycles.push_back(record.inject_cycle);
  }
  campaign::BootedGuest boot(setup, golden.program, budget, golden.analysis);
  const exec::FastForwardController::BoundaryMap boundaries =
      exec::FastForwardController::map_boundaries(boot.guest, std::move(cycles));

  campaign::CampaignRunner from_reset(&runner.cache());
  for (const campaign::RunResult& got : report.results) {
    const campaign::RunResult want = from_reset.run_one_fast_forward(
        setup, golden, plan.record(got.record.run_index), budget, boundaries, nullptr,
        spec.dme ? &trace : nullptr);
    EXPECT_EQ(got.outcome, want.outcome) << "run " << got.record.run_index;
    EXPECT_EQ(got.cycles, want.cycles) << "run " << got.record.run_index;
    EXPECT_EQ(got, want) << "run " << got.record.run_index;
  }
  EXPECT_EQ(counts_of(ff), counts_of(from_reset.fast_forward_stats()));
  EXPECT_EQ(from_reset.forked_runs(), 0u);
  EXPECT_GT(ff.fallbacks(), 0u);
  EXPECT_EQ(runner.forked_runs(), ff.fallbacks());
  if (param.workload == "server") {
    EXPECT_GT(ff.fallback_syscall, 0u) << "no fast-engine bail";
  }
}

INSTANTIATE_TEST_SUITE_P(Campaigns, FastForwardForkProperty,
                         ::testing::ValuesIn(fast_forward_fork_cases()), case_name);

}  // namespace
