// Differential property suite for fast mode: randomly generated guest
// programs run once through the exec/ fast engine (rse_run --fast style:
// relaxed session, transplant on bail) and once on the cycle-accurate OoO
// core.  Both runs feed the core's commit observer, so the two commit
// streams must be equal record for record: every commit's pc, fetched
// word, effective address and memory value, in order.  Architectural state
// must also match at every syscall boundary — the full register file and
// the post-syscall PC, snapshotted in both modes at the exact point the OS
// handler observes — and at exit: output, exit code, and the final arena
// memory (working-register dump included).  Programs with self-modifying
// stores to the text segment are part of the suite, and yielding programs
// run a strict session armed with the classic run's syscall schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "../support/random_program.hpp"
#include "../support/sim_runner.hpp"
#include "exec/fast_forward.hpp"
#include "exec/fast_session.hpp"
#include "workloads/workloads.hpp"

namespace rse {
namespace {

using testing::RandomProgramOptions;
using testing::SimRunner;
using testing::classic_schedule;
using testing::generate_random_program;

/// One committed instruction, as the core's commit observer reports it.
struct Commit {
  Addr pc = 0;
  Word raw = 0;  // instr.raw, the word as fetched
  Addr eff_addr = 0;
  Word mem_value = 0;
  bool operator==(const Commit&) const = default;
};

struct Snapshot {
  Addr pc = 0;  // post-syscall PC, as the OS handler sees it
  std::array<Word, isa::kNumRegs> regs{};
  bool operator==(const Snapshot& other) const {
    return pc == other.pc && regs == other.regs;
  }
};

struct RunTrace {
  bool finished = false;
  int exit_code = -1;
  std::string output;
  std::vector<Commit> commits;       // the whole commit stream, in order
  std::vector<Snapshot> boundaries;  // one per executed syscall, in order
  std::vector<u8> arena;
  bool bailed = false;  // a fast run that left the fast engine
};

std::vector<u8> arena_bytes(SimRunner& runner) {
  const Addr arena = runner.program().symbol("arena");
  std::vector<u8> out((64 + testing::kDumpOffsetWords + 16) * 4);
  runner.machine().memory().read_block(arena, out.data(), static_cast<u32>(out.size()));
  return out;
}

/// Record the commit stream from the core's commit observer, which both
/// engines feed, and a snapshot at every syscall commit.  At a classic
/// syscall commit the RUU holds only the syscall (it dispatches
/// serialized), and a fast session writes the registers and post-syscall PC
/// into the core before it reports a syscall, so in both modes context() is
/// exactly the state the handler is about to see.
void attach_commit_probe(SimRunner& runner, RunTrace* out) {
  cpu::Core& core = runner.machine().core();
  core.set_commit_observer([&core, out](Cycle, const engine::CommitInfo& info) {
    out->commits.push_back(Commit{info.pc, info.instr.raw, info.eff_addr, info.mem_value});
    if (info.instr.op != isa::Op::kSyscall) return;
    const cpu::ThreadContext ctx = core.context();
    out->boundaries.push_back(Snapshot{ctx.pc, ctx.regs});
  });
}

void finish_trace(SimRunner& runner, RunTrace* trace) {
  trace->finished = runner.os().finished();
  trace->exit_code = runner.os().exit_code();
  trace->output = runner.os().output();
  trace->arena = arena_bytes(runner);
}

RunTrace run_classic(const std::string& source, bool framework = false) {
  os::MachineConfig config;
  config.framework_present = framework;
  SimRunner runner(config);
  runner.load_source(source);
  RunTrace trace;
  attach_commit_probe(runner, &trace);
  runner.run();
  finish_trace(runner, &trace);
  return trace;
}

/// Run `source` through a fast session with `session_config`; syscalls the
/// session cannot run execute on the core after the transplant, which
/// continues the same commit stream.
RunTrace run_fast(const std::string& source, const exec::FastSessionConfig& session_config,
                  bool framework = false) {
  os::MachineConfig config;
  config.framework_present = framework;
  SimRunner runner(config);
  runner.load_source(source);
  RunTrace trace;
  attach_commit_probe(runner, &trace);
  exec::FastSession session(runner.os(), session_config);
  session.seed_leaders(runner.program());
  trace.bailed = session.run_to_end() == exec::FastSession::Status::kBail;
  finish_trace(runner, &trace);
  return trace;
}

RunTrace run_fast(const std::string& source, bool framework = false, bool superblocks = true) {
  exec::FastSessionConfig session_config;
  session_config.relaxed = true;
  session_config.superblocks = superblocks;
  return run_fast(source, session_config, framework);
}

void expect_traces_equal(const RunTrace& fast, const RunTrace& classic) {
  EXPECT_TRUE(classic.finished);
  EXPECT_TRUE(fast.finished);
  EXPECT_EQ(fast.exit_code, classic.exit_code);
  EXPECT_EQ(fast.output, classic.output);
  EXPECT_EQ(fast.arena, classic.arena);
  EXPECT_EQ(fast.commits.size(), classic.commits.size());
  const std::size_t common = std::min(fast.commits.size(), classic.commits.size());
  for (std::size_t i = 0; i < common; ++i) {
    const Commit& f = fast.commits[i];
    const Commit& c = classic.commits[i];
    if (f == c) continue;
    ADD_FAILURE() << "commit " << i << " differs: fast pc 0x" << std::hex << f.pc << " raw 0x"
                  << f.raw << " ea 0x" << f.eff_addr << " value 0x" << f.mem_value
                  << ", classic pc 0x" << c.pc << " raw 0x" << c.raw << " ea 0x" << c.eff_addr
                  << " value 0x" << c.mem_value;
    break;
  }
  ASSERT_EQ(fast.boundaries.size(), classic.boundaries.size());
  for (std::size_t i = 0; i < classic.boundaries.size(); ++i) {
    EXPECT_EQ(fast.boundaries[i].pc, classic.boundaries[i].pc) << "boundary " << i;
    for (u8 r = 1; r < isa::kNumRegs; ++r) {
      EXPECT_EQ(fast.boundaries[i].regs[r], classic.boundaries[i].regs[r])
          << "boundary " << i << ", register r" << static_cast<int>(r);
    }
  }
}

void expect_fast_matches_classic(const std::string& source, bool framework = false) {
  expect_traces_equal(run_fast(source, framework), run_classic(source, framework));
}

class FastDifferentialPlain : public ::testing::TestWithParam<u64> {};

TEST_P(FastDifferentialPlain, StateMatchesAtEveryBoundaryAndExit) {
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.print_progress = true;
  expect_fast_matches_classic(generate_random_program(GetParam(), options));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastDifferentialPlain, ::testing::Range<u64>(5000, 5050));

class FastDifferentialCalls : public ::testing::TestWithParam<u64> {};

TEST_P(FastDifferentialCalls, StateMatchesAtEveryBoundaryAndExit) {
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.with_calls = true;
  options.print_progress = true;
  expect_fast_matches_classic(generate_random_program(GetParam(), options));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastDifferentialCalls, ::testing::Range<u64>(5100, 5150));

class FastDifferentialCallHeavy : public ::testing::TestWithParam<u64> {};

TEST_P(FastDifferentialCallHeavy, StateMatchesAtEveryBoundaryAndExit) {
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.call_heavy = true;
  options.arg_pointers = true;
  options.print_progress = true;
  expect_fast_matches_classic(generate_random_program(GetParam(), options));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastDifferentialCallHeavy, ::testing::Range<u64>(5200, 5250));

class FastDifferentialSelfModifying
    : public ::testing::TestWithParam<std::tuple<u64, bool>> {};

TEST_P(FastDifferentialSelfModifying, PatchedTextMatchesAtEveryBoundaryAndExit) {
  // Self-modifying stores to text: the generator serializes (syscall) and
  // pads past the fetch buffer between each patch and its site, so the OoO
  // core and the functional fast path must observe identical instructions.
  // Runs in both dispatch modes — with superblock chaining the patch site
  // usually sits in the *middle* of a chained superblock, so the sweep pins
  // spanning-page invalidation tearing the whole superblock down.
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.self_modifying = true;
  options.print_progress = true;
  const auto [seed, superblocks] = GetParam();
  const std::string source = generate_random_program(seed, options);
  expect_traces_equal(run_fast(source, /*framework=*/false, superblocks), run_classic(source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastDifferentialSelfModifying,
                         ::testing::Combine(::testing::Range<u64>(5300, 5350),
                                            ::testing::Bool()));

class FastDifferentialYielding : public ::testing::TestWithParam<u64> {};

// The name predates the schedule-armed strict session below (it once ran a
// relaxed session with resume); it is kept on purpose so the 50 per-seed
// test IDs stay stable across history.
TEST_P(FastDifferentialYielding, RelaxedResumeMatchesAtEveryBoundaryAndExit) {
  // Bail-and-resume prefixes: yields suspend the single thread mid-program.
  // A strict session armed with the syscall schedule that
  // FastForwardController::map_boundaries records on a classic replay runs
  // each yield, and the exit, as an excursion at its classic commit cycle
  // (the path campaign fast-forward takes), replays each suspension on the
  // real scheduler and continues fast: the run finishes without a bail, and
  // every boundary snapshot and the final state match the cycle-accurate
  // run.
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.yield_points = true;
  options.print_progress = true;
  const std::string source = generate_random_program(GetParam(), options);
  const exec::FastForwardController::SyscallSchedule schedule = classic_schedule(source);
  exec::FastSessionConfig config;
  config.syscall_schedule = &schedule;
  const RunTrace fast = run_fast(source, config);
  EXPECT_FALSE(fast.bailed);
  expect_traces_equal(fast, run_classic(source));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastDifferentialYielding, ::testing::Range<u64>(5500, 5550));

class FastDifferentialInstrumented : public ::testing::TestWithParam<u64> {};

TEST_P(FastDifferentialInstrumented, ChkBoundariesAreTransparentInBothModes) {
  // ICM-instrumented programs on an RSE machine: CHKs are architectural
  // NOPs in both modes, so every boundary snapshot still matches.
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.print_progress = true;
  const std::string source =
      workloads::instrument_checks(generate_random_program(GetParam(), options));
  expect_fast_matches_classic(source, /*framework=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastDifferentialInstrumented,
                         ::testing::Range<u64>(5400, 5420));

}  // namespace
}  // namespace rse
