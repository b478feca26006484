#include <gtest/gtest.h>

#include <array>
#include <ostream>
#include <string>
#include <vector>

#include "../support/sim_runner.hpp"
#include "isa/interpreter.hpp"

namespace rse {
namespace {

using testing::SimRunner;
using testing::run_for_output;

// Guest programs communicate results through print syscalls; these tests
// validate the functional correctness of the pipeline (in-order semantics
// despite out-of-order timing) and basic timing sanity.

TEST(Core, ArithmeticSemantics) {
  const std::string out = run_for_output(R"(
.text
main:
  li t0, 6
  li t1, 7
  mul t2, t0, t1
  move a0, t2
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "42");
}

TEST(Core, SignedArithmetic) {
  const std::string out = run_for_output(R"(
.text
main:
  li t0, -15
  li t1, 4
  div t2, t0, t1       # -3 (truncating)
  rem t3, t0, t1       # -3
  add a0, t2, t3       # -6
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "-6");
}

TEST(Core, ShiftsAndLogic) {
  const std::string out = run_for_output(R"(
.text
main:
  li t0, 0xF0
  srl t1, t0, 4        # 0x0F
  sll t2, t1, 2        # 0x3C
  xor t3, t2, t1       # 0x33
  andi t4, t3, 0x0F    # 0x03
  ori a0, t4, 0x40     # 0x43 = 67
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "67");
}

TEST(Core, LoadStoreRoundTrip) {
  const std::string out = run_for_output(R"(
.data
buf: .space 64
.text
main:
  la s0, buf
  li t0, 1234
  sw t0, 8(s0)
  lw a0, 8(s0)
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "1234");
}

TEST(Core, ByteAndHalfAccesses) {
  const std::string out = run_for_output(R"(
.data
buf: .space 16
.text
main:
  la s0, buf
  li t0, -2
  sb t0, 0(s0)
  lb t1, 0(s0)         # sign-extended -2
  lbu t2, 0(s0)        # zero-extended 254
  add a0, t1, t2       # 252
  li v0, 2
  syscall
  li t0, -3
  sh t0, 4(s0)
  lh t1, 4(s0)
  lhu t2, 4(s0)
  beq t1, t0, half_ok
  li a0, 999
  li v0, 2
  syscall
half_ok:
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "252");
}

TEST(Core, StoreToLoadForwardingIsCorrect) {
  // A store immediately followed by a dependent load of the same address.
  const std::string out = run_for_output(R"(
.data
buf: .space 8
.text
main:
  la s0, buf
  li t0, 77
  sw t0, 0(s0)
  lw t1, 0(s0)
  addi a0, t1, 1
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "78");
}

TEST(Core, PartialStoreForwardsByByte) {
  const std::string out = run_for_output(R"(
.data
buf: .word 0x04030201
.text
main:
  la s0, buf
  li t0, 0xAA
  sb t0, 1(s0)        # word becomes 0x0403AA01
  lw t1, 0(s0)
  srl t1, t1, 8
  andi a0, t1, 0xFF    # 0xAA = 170
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "170");
}

TEST(Core, LoopSumsCorrectly) {
  const std::string out = run_for_output(R"(
.text
main:
  li t0, 0     # i
  li t1, 0     # sum
loop:
  li t2, 100
  bge t0, t2, done
  add t1, t1, t0
  addi t0, t0, 1
  b loop
done:
  move a0, t1
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "4950");
}

TEST(Core, FunctionCallAndReturn) {
  const std::string out = run_for_output(R"(
.text
main:
  li a0, 5
  jal square
  move a0, v0
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
square:
  mul v0, a0, a0
  jr ra
)");
  EXPECT_EQ(out, "25");
}

TEST(Core, NestedCallsThroughStack) {
  const std::string out = run_for_output(R"(
.text
main:
  li a0, 4
  jal fact
  move a0, v0
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
fact:
  li t0, 2
  blt a0, t0, base
  addi sp, sp, -8
  sw ra, 0(sp)
  sw a0, 4(sp)
  addi a0, a0, -1
  jal fact
  lw a0, 4(sp)
  lw ra, 0(sp)
  addi sp, sp, 8
  mul v0, v0, a0
  jr ra
base:
  li v0, 1
  jr ra
)");
  EXPECT_EQ(out, "24");
}

TEST(Core, MispredictedBranchesDoNotCorruptState) {
  // A data-dependent alternating branch defeats the bimodal predictor, so
  // wrong-path instructions are fetched and squashed constantly; the final
  // architectural result must still be exact.
  const std::string out = run_for_output(R"(
.text
main:
  li t0, 0     # i
  li t1, 0     # acc
loop:
  li t2, 200
  bge t0, t2, done
  andi t3, t0, 1
  beq t3, r0, even
  addi t1, t1, 3
  b next
even:
  addi t1, t1, 1
next:
  addi t0, t0, 1
  b loop
done:
  move a0, t1
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "400");  // 100*1 + 100*3
}

TEST(Core, SquashedWrongPathStoresNeverLand) {
  SimRunner runner;
  runner.load_source(R"(
.data
victim: .word 5
.text
main:
  li t0, 1
  beq t0, r0, poison   # never taken, but may be predicted taken
  b finish
poison:
  la t1, victim
  li t2, 666
  sw t2, 0(t1)
finish:
  lw a0, victim
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  runner.run();
  EXPECT_EQ(runner.os().output(), "5");
}

TEST(Core, MispredictsAreCountedOnAlternatingBranch) {
  SimRunner runner;
  runner.load_source(R"(
.text
main:
  li t0, 0
loop:
  li t2, 64
  bge t0, t2, done
  andi t3, t0, 1
  beq t3, r0, skip
  nop
skip:
  addi t0, t0, 1
  b loop
done:
  li a0, 0
  li v0, 1
  syscall
)");
  runner.run();
  EXPECT_GT(runner.core_stats().mispredicts, 10u);
  EXPECT_GT(runner.core_stats().squashed, 10u);
}

TEST(Core, TimingIsDeterministic) {
  const std::string source = R"(
.text
main:
  li t0, 0
loop:
  li t2, 500
  bge t0, t2, done
  addi t0, t0, 1
  b loop
done:
  li a0, 0
  li v0, 1
  syscall
)";
  SimRunner a, b;
  a.load_source(source);
  a.run();
  b.load_source(source);
  b.run();
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.core_stats().instructions, b.core_stats().instructions);
}

TEST(Core, IpcIsPlausible) {
  SimRunner runner;
  runner.load_source(R"(
.text
main:
  li t0, 0
loop:
  li t2, 2000
  bge t0, t2, done
  add t3, t0, t0
  add t4, t3, t0
  add t5, t4, t3
  addi t0, t0, 1
  b loop
done:
  li a0, 0
  li v0, 1
  syscall
)");
  runner.run();
  const double ipc = static_cast<double>(runner.core_stats().instructions) /
                     static_cast<double>(runner.core_stats().run_cycles);
  EXPECT_GT(ipc, 0.4);  // superscalar core must beat scalar-in-order-miss rates
  EXPECT_LT(ipc, 4.01);
}

TEST(Core, ExitCodePropagates) {
  SimRunner runner;
  runner.load_source(R"(
.text
main:
  li a0, 17
  li v0, 1
  syscall
)");
  runner.run();
  EXPECT_TRUE(runner.os().finished());
  EXPECT_EQ(runner.os().exit_code(), 17);
}

TEST(Core, LuiOriBuildsFullWord) {
  const std::string out = run_for_output(R"(
.text
main:
  lui t0, 0x1234
  ori t0, t0, 0x5678
  srl a0, t0, 16       # 0x1234 = 4660
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "4660");
}

TEST(Core, SltVariants) {
  const std::string out = run_for_output(R"(
.text
main:
  li t0, -1
  li t1, 1
  slt t2, t0, t1       # signed: 1
  sltu t3, t0, t1      # unsigned: 0 (0xFFFFFFFF > 1)
  slti t4, t0, 0       # 1
  sltiu t5, t1, 2      # 1
  add a0, t2, t3
  add a0, a0, t4
  add a0, a0, t5       # 3
  li v0, 2
  syscall
  li a0, 0
  li v0, 1
  syscall
)");
  EXPECT_EQ(out, "3");
}

TEST(Core, CommitTraceObservesRetirementOrder) {
  SimRunner runner;
  std::vector<Addr> pcs;
  runner.load_source(R"(
.text
main:
  li t0, 1
  li t1, 2
  add t2, t0, t1
  li a0, 0
  li v0, 1
  syscall
)");
  runner.machine().core().set_commit_observer(
      [&pcs](Cycle, const engine::CommitInfo& info) { pcs.push_back(info.pc); });
  runner.run();
  ASSERT_EQ(pcs.size(), 6u);
  for (std::size_t i = 1; i < pcs.size(); ++i) EXPECT_EQ(pcs[i], pcs[i - 1] + 4);
}

// ---- store-to-load forwarding through several in-flight stores
//
// Each row's stores sit behind a 20-cycle divide, so none of them has
// committed when the loads after them dispatch.  Every byte a load reads
// must come from the youngest older store that wrote it, or from memory
// when no store did.  The data words start as bytes 11 22 33 44 and
// 55 66 77 88.  The core must end each row with isa::Interpreter's register
// file and data words; the comments give the values both should reach.

struct ForwardingRow {
  const char* name;
  const char* body;  // runs with s0 = buf
};

void PrintTo(const ForwardingRow& row, std::ostream* os) { *os << row.name; }

const std::vector<ForwardingRow>& forwarding_rows() {
  static const std::vector<ForwardingRow> rows = {
      {"two_byte_stores_to_one_byte_youngest_wins", R"(
  li t0, 0x5A
  li t1, 0xA5
  sb t0, 1(s0)
  sb t1, 1(s0)
  lbu a0, 1(s0)      # 0x000000A5
  lb a1, 1(s0)       # 0xFFFFFFA5
  lh a2, 0(s0)       # 0xFFFFA511
  lw a3, 0(s0)       # 0x4433A511
)"},
      {"half_store_under_word_load", R"(
  li t0, 0x1234CDEF
  sh t0, 2(s0)
  lw a0, 0(s0)       # 0xCDEF2211
  lhu a1, 2(s0)      # 0x0000CDEF
  lh a2, 2(s0)       # 0xFFFFCDEF
  lb a3, 3(s0)       # 0xFFFFFFCD
  lhu v1, 0(s0)      # 0x00002211, memory only
)"},
      {"narrower_stores_over_a_word_store", R"(
  li t0, 0xA1A2A3A4
  li t1, 0xB1B2
  li t2, 0xC1
  sw t0, 4(s0)
  sh t1, 4(s0)
  sb t2, 5(s0)
  lw a0, 4(s0)       # 0xA1A2C1B2
  lhu a1, 4(s0)      # 0x0000C1B2
  lbu a2, 7(s0)      # 0x000000A1
  lb a3, 6(s0)       # 0xFFFFFFA2
)"},
      {"stored_bytes_mixed_with_memory_bytes", R"(
  li t0, 0xE1
  li t1, 0xF1F2
  sb t0, 0(s0)
  sh t1, 6(s0)
  sb t0, 2(s0)
  lw a0, 0(s0)       # 0x44E122E1
  lw a1, 4(s0)       # 0xF1F26655
  lh a2, 2(s0)       # 0x000044E1
  lhu a3, 0(s0)      # 0x000022E1
  lbu v1, 5(s0)      # 0x00000066, memory only
)"},
      {"word_store_shadows_an_older_byte_store", R"(
  li t0, 0x5A
  li t1, 0x01020304
  sb t0, 3(s0)
  sw t1, 0(s0)
  lbu a0, 3(s0)      # 0x00000001
  sb t0, 0(s0)
  lw a1, 0(s0)       # 0x0102035A
  lh a2, 2(s0)       # 0x00000102
)"},
  };
  return rows;
}

struct ForwardingRun {
  std::array<Word, isa::kNumRegs> regs{};
  Word word0 = 0;
  Word word1 = 0;
};

isa::Program forwarding_program(const ForwardingRow& row) {
  return isa::assemble(std::string(R"(
.data
.align 4
buf: .word 0x44332211, 0x88776655
.text
main:
  la s0, buf
  li t8, 1000
  li t9, 7
  div t7, t8, t9     # commit waits for it; the stores below stay in flight
)") + row.body + R"(
  syscall
)");
}

void load_program(mem::MainMemory& memory, const isa::Program& program) {
  for (std::size_t i = 0; i < program.text.size(); ++i) {
    memory.write_u32(program.text_base + static_cast<Addr>(i * 4), program.text[i]);
  }
  memory.write_block(program.data_base, program.data.data(),
                     static_cast<u32>(program.data.size()));
}

ForwardingRun run_on_interpreter(const isa::Program& program) {
  mem::MainMemory memory;
  load_program(memory, program);
  isa::Interpreter interp(memory);
  interp.set_pc(program.entry);
  interp.set_syscall_handler([](isa::Interpreter&) { return false; });
  EXPECT_EQ(interp.run(10'000), isa::Interpreter::Stop::kHandlerStop);
  return {interp.regs(), memory.read_u32(program.data_base),
          memory.read_u32(program.data_base + 4)};
}

/// The core's OS side: the first syscall ends the run.
class StopAtSyscall : public cpu::OsClient {
 public:
  bool stopped = false;
  SyscallResult on_syscall(Cycle) override {
    stopped = true;
    return {0, /*suspend=*/true};
  }
  bool on_check_error(Cycle, Addr, isa::ModuleId) override { return true; }
  void on_illegal(Cycle, Addr) override { stopped = true; }
};

ForwardingRun run_on_core(const isa::Program& program) {
  os::Machine machine;
  load_program(machine.memory(), program);
  StopAtSyscall os;
  cpu::Core& core = machine.core();
  core.set_os(&os);
  cpu::ThreadContext context;
  context.pc = program.entry;
  core.set_context(context, 0);
  core.resume();
  while (!os.stopped && machine.now() < 10'000) machine.step();
  EXPECT_TRUE(os.stopped) << "the core never reached the syscall";
  return {core.context().regs, machine.memory().read_u32(program.data_base),
          machine.memory().read_u32(program.data_base + 4)};
}

class StoreForwarding : public ::testing::TestWithParam<ForwardingRow> {};

TEST_P(StoreForwarding, CoreMatchesTheInterpreter) {
  const isa::Program program = forwarding_program(GetParam());
  const ForwardingRun want = run_on_interpreter(program);
  const ForwardingRun got = run_on_core(program);
  for (u8 r = 0; r < isa::kNumRegs; ++r) {
    EXPECT_EQ(got.regs[r], want.regs[r]) << "r" << static_cast<int>(r);
  }
  EXPECT_EQ(got.word0, want.word0) << "first data word";
  EXPECT_EQ(got.word1, want.word1) << "second data word";
}

INSTANTIATE_TEST_SUITE_P(Rows, StoreForwarding, ::testing::ValuesIn(forwarding_rows()),
                         [](const ::testing::TestParamInfo<ForwardingRow>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace rse
