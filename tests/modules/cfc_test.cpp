// Control-Flow Checker: the commit-stream sequence rules (unit level) and
// end-to-end detection of execution-path control-flow corruption that the
// ICM cannot see.
#include <gtest/gtest.h>

#include <vector>

#include "../support/sim_runner.hpp"
#include "common/serialize.hpp"
#include "modules/cfc/cfc.hpp"
#include "workloads/workloads.hpp"

namespace rse {
namespace {

using testing::SimRunner;

// ------------------------------------------------------------- unit level

struct CfcUnit : ::testing::Test {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  engine::Framework fw{memory, bus, 16};
  modules::CfcModule cfc{fw, modules::CfcConfig{0x40'0000, 0x41'0000}};
  std::vector<std::pair<Addr, Addr>> violations;  // (from, to)

  void SetUp() override {
    cfc.set_enabled(true);
    cfc.set_violation_handler(
        [this](ThreadId, Addr from, Addr to, Cycle) { violations.push_back({from, to}); });
  }

  void commit(ThreadId thread, Addr pc, const std::string& text) {
    const isa::Program p = isa::assemble(".text\nmain:\n  " + text + "\n");
    engine::CommitInfo info;
    info.thread = thread;
    info.pc = pc;
    info.instr = isa::decode(p.text[0]);
    cfc.on_commit(info, 0);
  }
};

TEST_F(CfcUnit, SequentialFlowIsClean) {
  commit(0, 0x400000, "add t0, t1, t2");
  commit(0, 0x400004, "sub t3, t4, t5");
  commit(0, 0x400008, "lw t0, 0(t1)");
  EXPECT_TRUE(violations.empty());
  EXPECT_EQ(cfc.stats().transitions_checked, 2u);
}

TEST_F(CfcUnit, NonSequentialAfterAluIsAViolation) {
  commit(0, 0x400000, "add t0, t1, t2");
  commit(0, 0x400100, "add t3, t4, t5");  // flow teleported
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].first, 0x400000u);
  EXPECT_EQ(violations[0].second, 0x400100u);
}

TEST_F(CfcUnit, BranchMayFallThroughOrHitItsEncodedTarget) {
  commit(0, 0x400000, "beq t0, t1, main");  // target = 0x400000 + 4 + imm*4
  const Addr target = 0x400000 + 4 + (static_cast<Word>(-1) << 2);  // back to main
  commit(0, target, "add t0, t1, t2");
  commit(0, target + 4, "beq t0, t1, main");
  commit(0, target + 8, "add t0, t1, t2");  // fall-through
  EXPECT_TRUE(violations.empty());
}

TEST_F(CfcUnit, BranchToForeignTargetIsAViolation) {
  commit(0, 0x400000, "beq t0, t1, main");
  commit(0, 0x400400, "add t0, t1, t2");  // neither fall-through nor target
  EXPECT_EQ(violations.size(), 1u);
}

TEST_F(CfcUnit, IndirectJumpMayLandAnywhereInText) {
  commit(0, 0x400000, "jr t0");
  commit(0, 0x400abc & ~3u, "add t0, t1, t2");
  EXPECT_TRUE(violations.empty());
}

TEST_F(CfcUnit, IndirectJumpOutsideTextIsAViolation) {
  commit(0, 0x400000, "jr t0");
  commit(0, 0x500000, "add t0, t1, t2");
  EXPECT_EQ(violations.size(), 1u);
}

TEST_F(CfcUnit, SyscallMayRedirect) {
  commit(0, 0x400000, "syscall");
  commit(0, 0x400800, "add t0, t1, t2");  // OS resumed elsewhere
  EXPECT_TRUE(violations.empty());
}

TEST_F(CfcUnit, RetryInPlaceIsLegal) {
  commit(0, 0x400000, "add t0, t1, t2");
  commit(0, 0x400000, "add t0, t1, t2");  // CHECK-error flush re-commits
  EXPECT_TRUE(violations.empty());
}

TEST_F(CfcUnit, ThreadStreamsAreIndependent) {
  commit(0, 0x400000, "add t0, t1, t2");
  commit(1, 0x400800, "add t0, t1, t2");  // thread 1 starts elsewhere: fine
  commit(0, 0x400004, "add t0, t1, t2");
  commit(1, 0x400804, "add t0, t1, t2");
  EXPECT_TRUE(violations.empty());
}

TEST_F(CfcUnit, ForgetThreadResetsItsStream) {
  commit(0, 0x400000, "add t0, t1, t2");
  cfc.forget_thread(0);
  commit(0, 0x400900, "add t0, t1, t2");  // fresh stream: first commit unchecked
  EXPECT_TRUE(violations.empty());
}

// The module remembers the entry of the thread that committed last.  The
// three cases below must count exactly what a per-commit map lookup counts:
// each thread's stream on its own, a forgotten (or reset) stream starting
// over, and a restored stream continuing from the snapshot's last commit.
TEST_F(CfcUnit, InterleavedThreadsKeepTheirOwnStreams) {
  commit(0, 0x400000, "add t0, t1, t2");
  commit(1, 0x400800, "add t0, t1, t2");
  commit(0, 0x400004, "add t0, t1, t2");
  commit(0, 0x400008, "add t0, t1, t2");
  commit(1, 0x400804, "add t0, t1, t2");
  commit(1, 0x400808, "add t0, t1, t2");
  commit(0, 0x400100, "add t0, t1, t2");  // thread 0 teleports from 0x400008
  EXPECT_EQ(cfc.stats().transitions_checked, 5u);
  EXPECT_EQ(cfc.stats().violations, 1u);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].first, 0x400008u);
}

TEST_F(CfcUnit, ForgottenOrResetThreadStartsAFreshStream) {
  commit(0, 0x400000, "add t0, t1, t2");
  commit(0, 0x400004, "add t0, t1, t2");
  cfc.forget_thread(0);
  commit(0, 0x400900, "add t0, t1, t2");  // first commit of a new stream
  commit(0, 0x400904, "add t0, t1, t2");
  EXPECT_EQ(cfc.stats().transitions_checked, 2u);
  EXPECT_EQ(cfc.stats().violations, 0u);
  cfc.reset();
  commit(0, 0x400200, "add t0, t1, t2");
  commit(0, 0x400204, "add t0, t1, t2");
  EXPECT_EQ(cfc.stats().transitions_checked, 1u);
  EXPECT_EQ(cfc.stats().violations, 0u);
}

TEST_F(CfcUnit, RestoredStreamContinuesFromTheSnapshot) {
  commit(0, 0x400000, "add t0, t1, t2");
  commit(0, 0x400004, "add t0, t1, t2");
  snap::Writer writer;
  cfc.serialize_state(writer);
  const std::vector<u8> image = writer.take();
  commit(0, 0x400008, "add t0, t1, t2");
  commit(0, 0x40000c, "add t0, t1, t2");
  snap::Reader reader(image);
  cfc.serialize_state(reader);
  // Legal after the snapshot's 0x400004; after the live 0x40000c it would
  // be a violation.
  commit(0, 0x400008, "add t0, t1, t2");
  EXPECT_EQ(cfc.stats().transitions_checked, 2u);
  EXPECT_EQ(cfc.stats().violations, 0u);
  EXPECT_TRUE(violations.empty());
}

// ------------------------------------------------------- end-to-end level

os::MachineConfig rse_machine() {
  os::MachineConfig config;
  config.framework_present = true;
  return config;
}

TEST(CfcEndToEnd, CleanWorkloadRaisesNoViolations) {
  // Mispredictions, syscalls, calls, loops — none of it may false-positive.
  workloads::KMeansParams params;
  params.patterns = 60;
  params.clusters = 8;
  params.iters = 2;
  SimRunner runner(rse_machine());
  runner.os().enable_module(isa::ModuleId::kCfc);
  runner.load_source(workloads::kmeans_source(params));
  runner.run();
  EXPECT_EQ(runner.os().exit_code(), 0);
  EXPECT_EQ(runner.machine().cfc()->stats().violations, 0u);
  EXPECT_GT(runner.machine().cfc()->stats().transitions_checked, 1000u);
}

TEST(CfcEndToEnd, MultithreadedServerRaisesNoViolations) {
  workloads::ServerParams params;
  params.threads = 3;
  params.compute_iters = 40;
  SimRunner runner(rse_machine());
  runner.os().enable_module(isa::ModuleId::kCfc);
  runner.os().network().configure([] {
    os::NetworkConfig net;
    net.total_requests = 8;
    net.interarrival = 400;
    net.io_latency_mean = 1500;
    return net;
  }());
  runner.load_source(workloads::server_source(params));
  runner.run();
  EXPECT_EQ(runner.os().exit_code(), 0);
  EXPECT_EQ(runner.machine().cfc()->stats().violations, 0u);
}

TEST(CfcEndToEnd, CorruptedBranchTargetDetectedAndContained) {
  // A soft error in the branch unit skews one taken-branch target by two
  // instructions.  The binary is intact (the ICM would pass it); the CFC
  // sees the illegal (branch -> non-target) transition and the OS contains
  // the thread.
  SimRunner runner(rse_machine());
  runner.os().enable_module(isa::ModuleId::kCfc);
  runner.load_source(R"(
.text
main:
  li t0, 0
  li t1, 0
loop:
  li t2, 50
  add t1, t1, t0
  addi t0, t0, 1
  blt t0, t2, loop
  move a0, t1
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  const Addr branch_pc = runner.program().symbol("loop") + 3 * 4;
  const Addr loop_pc = runner.program().symbol("loop");
  int injections = 0;
  runner.machine().core().set_branch_fault_hook([&](Addr pc, Addr next) -> Addr {
    if (pc == branch_pc && next == loop_pc && injections == 0) {
      ++injections;
      return next + 8;  // lands two instructions into the block
    }
    return next;
  });
  runner.run();
  EXPECT_EQ(injections, 1);
  EXPECT_TRUE(runner.os().finished());
  EXPECT_GE(runner.machine().cfc()->stats().violations, 1u);
  EXPECT_EQ(runner.os().exit_code(), 139);  // contained, not silent
}

TEST(CfcEndToEnd, SameCorruptionIsSilentWithoutCfc) {
  SimRunner runner(rse_machine());  // CFC left disabled
  runner.load_source(R"(
.text
main:
  li t0, 0
  li t1, 0
loop:
  li t2, 50
  add t1, t1, t0
  addi t0, t0, 1
  blt t0, t2, loop
  move a0, t1
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  const Addr branch_pc = runner.program().symbol("loop") + 3 * 4;
  const Addr loop_pc = runner.program().symbol("loop");
  int injections = 0;
  runner.machine().core().set_branch_fault_hook([&](Addr pc, Addr next) -> Addr {
    if (pc == branch_pc && next == loop_pc && injections == 0) {
      ++injections;
      return next + 8;
    }
    return next;
  });
  runner.run();
  EXPECT_EQ(injections, 1);
  EXPECT_TRUE(runner.os().finished());
  EXPECT_EQ(runner.os().exit_code(), 0);
  EXPECT_NE(runner.os().output(), "1225");  // silently wrong result
}

TEST(CfcEndToEnd, ComposesWithIcm) {
  // ICM guards binaries, CFC guards the executed flow; enabling both on a
  // clean instrumented run raises neither mismatches nor violations.
  workloads::KMeansParams params;
  params.patterns = 40;
  params.clusters = 4;
  params.iters = 1;
  SimRunner runner(rse_machine());
  runner.os().enable_module(isa::ModuleId::kCfc);
  runner.load_source(workloads::instrument_checks(workloads::kmeans_source(params)));
  runner.run();
  EXPECT_EQ(runner.os().exit_code(), 0);
  EXPECT_EQ(runner.machine().icm()->stats().mismatches, 0u);
  EXPECT_EQ(runner.machine().cfc()->stats().violations, 0u);
}

}  // namespace
}  // namespace rse
