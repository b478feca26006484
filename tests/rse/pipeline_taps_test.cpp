// The framework's pipeline taps observed by a recording module while a real
// program runs on the out-of-order core: dispatch order, operand values
// (Regfile_Data), effective addresses (Execute_Out), loaded values
// (Memory_Out), commit order, and wrong-path squashes — the input interface
// of paper section 3.1 end to end.
#include <gtest/gtest.h>

#include <vector>

#include "cpu/core.hpp"
#include "isa/assembler.hpp"
#include "mem/cache.hpp"
#include "rse/framework.hpp"

namespace rse::engine {
namespace {

class RecorderModule : public Module {
 public:
  using Module::Module;
  isa::ModuleId id() const override { return isa::ModuleId::kIcm; }
  const char* name() const override { return "recorder"; }

  void on_dispatch(const DispatchInfo& info, Cycle) override { dispatches.push_back(info); }
  void on_execute(const ExecuteInfo& info, Cycle) override { executes.push_back(info); }
  void on_commit(const CommitInfo& info, Cycle) override { commits.push_back(info); }
  void on_squash(const InstrTag& tag, Cycle) override { squashes.push_back(tag); }

  std::vector<DispatchInfo> dispatches;
  std::vector<ExecuteInfo> executes;
  std::vector<CommitInfo> commits;
  std::vector<InstrTag> squashes;
};

/// A bare machine without the GuestOs: core + framework + recorder module.
struct TapsFixture : ::testing::Test, cpu::OsClient {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  mem::BusMemory port{bus, mem::BusSource::kPipeline};
  mem::Cache il1{mem::CacheConfig{"il1", 8192, 1, 32, 1}, port};
  mem::Cache dl1{mem::CacheConfig{"dl1", 8192, 1, 32, 1}, port};
  Framework fw{memory, bus, 16};
  RecorderModule* recorder = nullptr;
  std::unique_ptr<cpu::Core> core;
  bool exited = false;

  void SetUp() override {
    auto module = std::make_unique<RecorderModule>(fw);
    recorder = module.get();
    fw.add_module(std::move(module));
    recorder->set_enabled(true);
    core = std::make_unique<cpu::Core>(cpu::CoreConfig{}, memory, il1, dl1);
    core->attach_framework(&fw);
    core->set_os(this);
  }

  // OsClient: syscall == exit for these tests.
  SyscallResult on_syscall(Cycle) override {
    exited = true;
    return SyscallResult{0, true};
  }
  bool on_check_error(Cycle, Addr, isa::ModuleId) override { return true; }
  void on_illegal(Cycle, Addr) override { exited = true; }

  void run(const std::string& source, Cycle limit = 50000) {
    const isa::Program program = isa::assemble(source);
    for (std::size_t i = 0; i < program.text.size(); ++i) {
      memory.write_u32(program.text_base + static_cast<Addr>(i * 4), program.text[i]);
    }
    if (!program.data.empty()) {
      memory.write_block(program.data_base, program.data.data(),
                         static_cast<u32>(program.data.size()));
    }
    cpu::ThreadContext context;
    context.pc = program.entry;
    context.regs[isa::kSp] = 0x7FFE0000;
    core->set_context(context, 0);
    core->resume();
    Cycle now = 0;
    while (++now <= limit && !exited) {
      core->cycle(now);
      fw.tick(now);
    }
    ASSERT_TRUE(exited) << "program did not finish";
    // Drain the framework's latched events (1-cycle visibility delay).
    for (int k = 0; k < 4; ++k) fw.tick(++now);
  }
};

TEST_F(TapsFixture, CommitsArriveInProgramOrder) {
  run(R"(
.text
main:
  li t0, 1
  li t1, 2
  add t2, t0, t1
  syscall
)");
  ASSERT_GE(recorder->commits.size(), 3u);
  EXPECT_EQ(recorder->commits[0].pc, 0x400000u);
  EXPECT_EQ(recorder->commits[1].pc, 0x400004u);
  EXPECT_EQ(recorder->commits[2].pc, 0x400008u);
  // Sequence numbers strictly increase in commit order.
  for (std::size_t i = 1; i < recorder->commits.size(); ++i) {
    EXPECT_GT(recorder->commits[i].tag.seq, recorder->commits[i - 1].tag.seq);
  }
}

TEST_F(TapsFixture, RegfileDataCarriesOperandValues) {
  run(R"(
.text
main:
  li t0, 41
  addi t1, t0, 1
  add t2, t1, t0
  syscall
)");
  // Find the add's dispatch record: operands must be the architectural
  // values at dispatch (42 and 41).
  bool found = false;
  for (const DispatchInfo& d : recorder->dispatches) {
    if (d.instr.op == isa::Op::kAdd && d.instr.rd == isa::kT0 + 2) {
      ASSERT_EQ(d.operand_count, 2);
      EXPECT_EQ(d.operands[0], 42u);
      EXPECT_EQ(d.operands[1], 41u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TapsFixture, ExecuteOutDeliversEffectiveAddresses) {
  run(R"(
.data
.align 4
var: .word 1234
.text
main:
  la s0, var
  lw t0, 0(s0)
  sw t0, 4(s0)
  syscall
)");
  Addr var = 0;
  for (const CommitInfo& c : recorder->commits) {
    if (c.instr.op == isa::Op::kLw) var = c.eff_addr;
  }
  ASSERT_NE(var, 0u);
  bool load_seen = false, store_seen = false;
  for (const ExecuteInfo& x : recorder->executes) {
    if (x.is_mem && x.eff_addr == var) load_seen = true;
    if (x.is_mem && x.eff_addr == var + 4) store_seen = true;
  }
  EXPECT_TRUE(load_seen);
  EXPECT_TRUE(store_seen);
}

TEST_F(TapsFixture, CommitOutCarriesLoadedAndStoredValues) {
  run(R"(
.data
.align 4
var: .word 1234
.text
main:
  lw t0, var
  addi t0, t0, 1
  sw t0, var
  syscall
)");
  bool load_ok = false, store_ok = false;
  for (const CommitInfo& c : recorder->commits) {
    if (c.instr.op == isa::Op::kLw) load_ok = c.mem_value == 1234;
    if (c.instr.op == isa::Op::kSw) store_ok = c.mem_value == 1235;
  }
  EXPECT_TRUE(load_ok);
  EXPECT_TRUE(store_ok);
}

TEST_F(TapsFixture, WrongPathDispatchesAreFlaggedAndSquashed) {
  // A never-taken branch that the fresh bimodal predictor guesses taken:
  // the wrong-path instructions dispatch flagged and are squashed, never
  // committed.
  run(R"(
.text
main:
  li t0, 1
  beq t0, r0, wrong    # never taken; predicted taken initially
  b after
wrong:
  add t5, t5, t5
  add t6, t6, t6
after:
  syscall
)");
  u32 wrong_path_dispatches = 0;
  for (const DispatchInfo& d : recorder->dispatches) {
    if (d.wrong_path) ++wrong_path_dispatches;
  }
  EXPECT_GT(wrong_path_dispatches, 0u);
  EXPECT_FALSE(recorder->squashes.empty());
  // No committed instruction carries a wrong-path pc between `wrong` and
  // `after` writing t5/t6.
  for (const CommitInfo& c : recorder->commits) {
    if (c.instr.op == isa::Op::kAdd) {
      EXPECT_NE(c.instr.rd, isa::kT0 + 5);
      EXPECT_NE(c.instr.rd, isa::kT0 + 6);
    }
  }
  // Every squash matches a dispatch that never committed.
  for (const InstrTag& tag : recorder->squashes) {
    for (const CommitInfo& c : recorder->commits) {
      EXPECT_FALSE(c.tag == tag);
    }
  }
}

TEST_F(TapsFixture, EveryCommittedInstructionWasDispatchedExactlyOnce) {
  run(R"(
.text
main:
  li t0, 0
loop:
  li t1, 20
  addi t0, t0, 1
  blt t0, t1, loop
  syscall
)");
  for (const CommitInfo& c : recorder->commits) {
    u32 matches = 0;
    for (const DispatchInfo& d : recorder->dispatches) {
      if (d.tag == c.tag) ++matches;
    }
    EXPECT_EQ(matches, 1u) << "pc 0x" << std::hex << c.pc;
  }
}

TEST_F(TapsFixture, DispatchPlusSquashAccountsForEverything) {
  run(R"(
.text
main:
  li t0, 0
loop:
  li t1, 30
  andi t2, t0, 1
  beq t2, r0, skip
  nop
skip:
  addi t0, t0, 1
  blt t0, t1, loop
  syscall
)");
  // commits + squashes == dispatches (nothing vanishes, nothing is counted
  // twice).
  EXPECT_EQ(recorder->commits.size() + recorder->squashes.size(),
            recorder->dispatches.size());
}

// The core's commit observer receives, at commit, the same record the
// framework hands modules one cycle later, syscall included, and that record
// carries the word as fetched.
TEST_F(TapsFixture, CommitObserverSeesTheRecordModulesGet) {
  std::vector<CommitInfo> observed;
  core->set_commit_observer(
      [&observed](Cycle, const CommitInfo& info) { observed.push_back(info); });
  run(R"(
.data
.align 4
var: .word 1234
.text
main:
  lw t0, var
  addi t0, t0, 1
  sw t0, var
  syscall
)");
  ASSERT_FALSE(observed.empty());
  ASSERT_EQ(observed.size(), recorder->commits.size());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const CommitInfo& seen = observed[i];
    const CommitInfo& module = recorder->commits[i];
    EXPECT_EQ(seen.tag, module.tag);
    EXPECT_EQ(seen.pc, module.pc);
    EXPECT_EQ(seen.instr.raw, module.instr.raw);
    EXPECT_EQ(seen.thread, module.thread);
    EXPECT_EQ(seen.eff_addr, module.eff_addr);
    EXPECT_EQ(seen.mem_value, module.mem_value);
    EXPECT_EQ(seen.instr.raw, memory.read_u32(seen.pc)) << "pc 0x" << std::hex << seen.pc;
  }
  EXPECT_EQ(observed.back().instr.op, isa::Op::kSyscall);
}

}  // namespace
}  // namespace rse::engine
