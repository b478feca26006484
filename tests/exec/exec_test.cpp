// Unit tests for the fast-path execution engine (src/exec/): decoded
// basic-block cache behavior (terminators, leader cuts, page-granular
// invalidation), FastEngine architectural semantics against the golden
// interpreter, FastSession whitelist/bail handling, and the fast golden
// baseline's equivalence to the cycle-accurate one.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "../support/random_program.hpp"
#include "../support/sim_runner.hpp"
#include "campaign/golden.hpp"
#include "campaign/workload.hpp"
#include "exec/block_cache.hpp"
#include "exec/fast_engine.hpp"
#include "exec/fast_forward.hpp"
#include "exec/fast_session.hpp"
#include "isa/assembler.hpp"
#include "isa/interpreter.hpp"

namespace rse {
namespace {

using testing::RandomProgramOptions;
using testing::SimRunner;
using testing::generate_random_program;

void write_program(mem::MainMemory& memory, const isa::Program& program) {
  for (std::size_t i = 0; i < program.text.size(); ++i) {
    memory.write_u32(program.text_base + static_cast<Addr>(i * 4), program.text[i]);
  }
  if (!program.data.empty()) {
    memory.write_block(program.data_base, program.data.data(),
                       static_cast<u32>(program.data.size()));
  }
}

// ---------------------------------------------------------------- BlockCache

TEST(BlockCache, BlockRunsUpToAndIncludingTerminator) {
  const isa::Program program = isa::assemble(
      ".text\nmain:\n"
      "  addi t0, r0, 1\n"
      "  add t1, t0, t0\n"
      "  beq t0, t1, skip\n"
      "  sub t2, t1, t0\n"
      "skip:\n"
      "  syscall\n");
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);

  const exec::DecodedBlock* block = cache.lookup(program.entry);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->start, program.entry);
  ASSERT_EQ(block->instrs.size(), 3u);  // addi, add, beq — branch terminates
  EXPECT_EQ(block->instrs[2].op, isa::Op::kBeq);

  const exec::DecodedBlock* tail = cache.lookup(program.symbol("skip"));
  ASSERT_NE(tail, nullptr);
  ASSERT_EQ(tail->instrs.size(), 1u);  // syscall terminates immediately
  EXPECT_EQ(tail->instrs[0].op, isa::Op::kSyscall);
  EXPECT_EQ(cache.stats().decodes, 2u);
  EXPECT_EQ(cache.blocks_cached(), 2u);
}

TEST(BlockCache, RegisteredLeaderCutsStraightLineCode) {
  const isa::Program program = isa::assemble(
      ".text\nmain:\n"
      "  addi t0, r0, 1\n"
      "  addi t1, r0, 2\n"
      "mid:\n"
      "  addi t2, r0, 3\n"
      "  syscall\n");
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  cache.set_chaining(false);  // per-block shape: chaining crosses leaders
  cache.add_leader(program.symbol("mid"));

  const exec::DecodedBlock* head = cache.lookup(program.entry);
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(head->instrs.size(), 2u);  // stops before the registered leader
  const exec::DecodedBlock* mid = cache.lookup(program.symbol("mid"));
  ASSERT_NE(mid, nullptr);
  EXPECT_EQ(mid->instrs.size(), 2u);  // addi + syscall
}

TEST(BlockCache, InvalidateDropsBlocksSharingThePage) {
  const isa::Program program = isa::assemble(
      ".text\nmain:\n"
      "  addi t0, r0, 1\n"
      "  addi t1, r0, 2\n"
      "  syscall\n");
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);

  ASSERT_NE(cache.lookup(program.entry), nullptr);
  EXPECT_EQ(cache.blocks_cached(), 1u);
  cache.invalidate(program.entry + 4, 4);
  EXPECT_EQ(cache.blocks_cached(), 0u);
  EXPECT_GE(cache.stats().invalidations, 1u);
  // Re-lookup decodes afresh (and sees whatever memory now holds).
  ASSERT_NE(cache.lookup(program.entry), nullptr);
  EXPECT_EQ(cache.stats().decodes, 2u);
}

TEST(BlockCache, BlockLengthIsCapped) {
  std::string source = ".text\nmain:\n";
  for (u32 i = 0; i < exec::BlockCache::kMaxBlockInstrs + 8; ++i) {
    source += "  addi t0, t0, 1\n";
  }
  source += "  syscall\n";
  const isa::Program program = isa::assemble(source);
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  cache.set_chaining(false);  // superblocks use the larger kMaxSuperblockInstrs
  const exec::DecodedBlock* block = cache.lookup(program.entry);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->instrs.size(), exec::BlockCache::kMaxBlockInstrs);
}

// ---------------------------------------------------------------- superblocks

TEST(BlockCache, SuperblockChainsAcrossUnconditionalJumps) {
  const isa::Program program = isa::assemble(
      ".text\nmain:\n"
      "  addi t0, r0, 1\n"
      "  j mid\n"
      "pad:\n"
      "  addi t3, r0, 9\n"
      "  syscall\n"
      "mid:\n"
      "  addi t1, r0, 2\n"
      "  j tail\n"
      "tail:\n"
      "  addi t2, r0, 3\n"
      "  syscall\n");
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  const Addr text_end = program.text_base + static_cast<Addr>(program.text.size() * 4);
  cache.set_text_range(program.text_base, text_end);

  const exec::DecodedBlock* block = cache.lookup(program.entry);
  ASSERT_NE(block, nullptr);
  EXPECT_TRUE(block->chained);
  // addi, j, addi, j, addi, syscall — both jumps chained through.
  ASSERT_EQ(block->instrs.size(), 6u);
  EXPECT_EQ(block->pcs[2], program.symbol("mid"));
  EXPECT_EQ(block->pcs[4], program.symbol("tail"));
  EXPECT_EQ(block->instrs[5].op, isa::Op::kSyscall);
  EXPECT_EQ(cache.stats().superblocks, 1u);
}

TEST(BlockCache, SuperblockCrossesRegisteredLeaders) {
  const isa::Program program = isa::assemble(
      ".text\nmain:\n"
      "  addi t0, r0, 1\n"
      "  addi t1, r0, 2\n"
      "mid:\n"
      "  addi t2, r0, 3\n"
      "  syscall\n");
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  const Addr text_end = program.text_base + static_cast<Addr>(program.text.size() * 4);
  cache.set_text_range(program.text_base, text_end);
  cache.add_leader(program.symbol("mid"));

  const exec::DecodedBlock* head = cache.lookup(program.entry);
  ASSERT_NE(head, nullptr);
  EXPECT_TRUE(head->chained);
  EXPECT_EQ(head->instrs.size(), 4u);  // runs straight through the leader
}

TEST(BlockCache, SuperblockStopsOnBackEdgeLoop) {
  // j back to an already-visited pc must terminate the chain, not spin.
  const isa::Program program = isa::assemble(
      ".text\nmain:\n"
      "  addi t0, r0, 1\n"
      "  j main\n");
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  const Addr text_end = program.text_base + static_cast<Addr>(program.text.size() * 4);
  cache.set_text_range(program.text_base, text_end);

  const exec::DecodedBlock* block = cache.lookup(program.entry);
  ASSERT_NE(block, nullptr);
  ASSERT_EQ(block->instrs.size(), 2u);  // addi + j, then the revisit stops it
  EXPECT_EQ(block->instrs[1].op, isa::Op::kJ);
}

TEST(BlockCache, SuperblockLengthIsCapped) {
  std::string source = ".text\nmain:\n";
  for (u32 i = 0; i < exec::BlockCache::kMaxSuperblockInstrs + 8; ++i) {
    source += "  addi t0, t0, 1\n";
  }
  source += "  syscall\n";
  const isa::Program program = isa::assemble(source);
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  const Addr text_end = program.text_base + static_cast<Addr>(program.text.size() * 4);
  cache.set_text_range(program.text_base, text_end);
  const exec::DecodedBlock* block = cache.lookup(program.entry);
  ASSERT_NE(block, nullptr);
  EXPECT_EQ(block->instrs.size(), exec::BlockCache::kMaxSuperblockInstrs);
}

TEST(BlockCache, StoreIntoMiddleOfSuperblockInvalidatesIt) {
  // Satellite: page-granular invalidation must tear down superblocks that
  // merely *span* the stored page, not just ones that start on it.  Build a
  // superblock whose chained tail sits on a different page from its start.
  std::string source = ".text\nmain:\n  j far\n";
  source += "pad:\n";
  for (u32 i = 0; i < 2048; ++i) source += "  addi t3, t3, 1\n";  // 8 KiB of padding
  source +=
      "far:\n"
      "  addi t1, r0, 2\n"
      "  syscall\n";
  const isa::Program program = isa::assemble(source);
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  const Addr text_end = program.text_base + static_cast<Addr>(program.text.size() * 4);
  cache.set_text_range(program.text_base, text_end);

  const exec::DecodedBlock* block = cache.lookup(program.entry);
  ASSERT_NE(block, nullptr);
  ASSERT_TRUE(block->chained);
  const Addr far_pc = program.symbol("far");
  ASSERT_NE(mem::page_of(far_pc), mem::page_of(program.entry));  // spans pages
  EXPECT_EQ(cache.blocks_cached(), 1u);

  // A store into the chained tail's page — far from the block's start page —
  // must drop the superblock.
  cache.invalidate(far_pc + 4, 4);
  EXPECT_EQ(cache.blocks_cached(), 0u);

  // Per-block mode never had the tail in the head block, so the same store
  // leaves the head block alone.
  cache.set_chaining(false);
  ASSERT_NE(cache.lookup(program.entry), nullptr);
  EXPECT_EQ(cache.blocks_cached(), 1u);
  cache.invalidate(far_pc + 4, 4);
  EXPECT_EQ(cache.blocks_cached(), 1u);
}

TEST(BlockCache, SetChainingTogglesClearTheCache) {
  const isa::Program program = isa::assemble(
      ".text\nmain:\n"
      "  addi t0, r0, 1\n"
      "  syscall\n");
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  ASSERT_NE(cache.lookup(program.entry), nullptr);
  EXPECT_EQ(cache.blocks_cached(), 1u);
  cache.set_chaining(false);  // shapes differ per mode: toggle must clear
  EXPECT_EQ(cache.blocks_cached(), 0u);
  cache.set_chaining(false);  // no-op: already off
  ASSERT_NE(cache.lookup(program.entry), nullptr);
  EXPECT_EQ(cache.blocks_cached(), 1u);
  cache.set_chaining(true);
  EXPECT_EQ(cache.blocks_cached(), 0u);
}

// ---------------------------------------------------------------- FastEngine

/// Run `source` bare (no OS) on both the golden interpreter and the fast
/// engine, stopping on the first syscall, and require identical registers.
void expect_engine_matches_interpreter(const std::string& source) {
  const isa::Program program = isa::assemble(source);

  mem::MainMemory golden_memory;
  write_program(golden_memory, program);
  isa::Interpreter interp(golden_memory);
  interp.set_pc(program.entry);
  interp.set_syscall_handler([](isa::Interpreter&) { return false; });
  ASSERT_EQ(interp.run(), isa::Interpreter::Stop::kHandlerStop);

  mem::MainMemory fast_memory;
  write_program(fast_memory, program);
  exec::BlockCache cache(fast_memory);
  exec::FastEngine engine(fast_memory, cache, program.text_base,
                          program.text_base + static_cast<Addr>(program.text.size() * 4));
  engine.set_pc(program.entry);
  ASSERT_EQ(engine.run_until(~0ull), exec::FastEngine::Stop::kSyscall);

  for (u8 r = 1; r < isa::kNumRegs; ++r) {
    EXPECT_EQ(engine.reg(r), interp.reg(r)) << "register r" << static_cast<int>(r);
  }
  const Addr arena = program.symbol("arena");
  const u32 bytes = (64 + testing::kDumpOffsetWords + 16) * 4;
  std::vector<u8> golden_bytes(bytes), fast_bytes(bytes);
  golden_memory.read_block(arena, golden_bytes.data(), bytes);
  fast_memory.read_block(arena, fast_bytes.data(), bytes);
  EXPECT_EQ(fast_bytes, golden_bytes);
}

class FastEngineDifferential : public ::testing::TestWithParam<u64> {};

TEST_P(FastEngineDifferential, MatchesGoldenInterpreter) {
  RandomProgramOptions options;
  options.with_memory = true;
  options.with_loops = true;
  options.with_calls = true;
  expect_engine_matches_interpreter(generate_random_program(GetParam(), options));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastEngineDifferential, ::testing::Range<u64>(9000, 9010));

TEST(FastEngine, SelfModifyingStoreExecutesThePatchedWord) {
  // The store rewrites `patch` with the donor word before the site's first
  // execution; the functional model must observe it immediately.
  const isa::Program program = isa::assemble(
      ".text\nmain:\n"
      "  la v1, donor\n"
      "  lw v0, 0(v1)\n"
      "  la t9, patch\n"
      "  sw v0, 0(t9)\n"
      "patch:\n"
      "  addi s1, s1, 1\n"
      "  syscall\n"
      "donor:\n"
      "  addi s1, s1, 7\n");
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  exec::FastEngine engine(memory, cache, program.text_base,
                          program.text_base + static_cast<Addr>(program.text.size() * 4));
  engine.set_pc(program.entry);
  ASSERT_EQ(engine.run_until(~0ull), exec::FastEngine::Stop::kSyscall);
  EXPECT_EQ(engine.reg(17), 7u);  // s1 took the donor's +7, not the stale +1
  EXPECT_GE(cache.stats().invalidations, 1u);
}

TEST(FastEngine, SuperblockDispatchMatchesPerBlockDispatch) {
  // The same jump-threaded program must produce identical architectural
  // results whether dispatch runs chained superblocks or per-basic-block.
  const std::string source =
      ".text\nmain:\n"
      "  addi t0, r0, 5\n"
      "loop:\n"
      "  addi t1, t1, 3\n"
      "  j step\n"
      "step:\n"
      "  addi t0, t0, -1\n"
      "  bne t0, r0, loop\n"
      "  syscall\n";
  const isa::Program program = isa::assemble(source);
  const Addr text_end = program.text_base + static_cast<Addr>(program.text.size() * 4);

  u64 chained_executed = 0;
  std::array<Word, isa::kNumRegs> chained_regs{};
  {
    mem::MainMemory memory;
    write_program(memory, program);
    exec::BlockCache cache(memory);
    exec::FastEngine engine(memory, cache, program.text_base, text_end);
    engine.set_pc(program.entry);
    ASSERT_EQ(engine.run_until(~0ull), exec::FastEngine::Stop::kSyscall);
    EXPECT_GE(cache.stats().superblocks, 1u);
    chained_executed = engine.executed();
    chained_regs = engine.regs();
  }
  {
    mem::MainMemory memory;
    write_program(memory, program);
    exec::BlockCache cache(memory);
    cache.set_chaining(false);
    exec::FastEngine engine(memory, cache, program.text_base, text_end);
    engine.set_pc(program.entry);
    ASSERT_EQ(engine.run_until(~0ull), exec::FastEngine::Stop::kSyscall);
    EXPECT_EQ(cache.stats().superblocks, 0u);
    EXPECT_EQ(engine.executed(), chained_executed);
    EXPECT_EQ(engine.regs(), chained_regs);
  }
}

TEST(FastEngine, SelfModifyingStoreIntoChainedSuperblockTail) {
  // Satellite sweep, unit flavor: a store into the *middle* of a running
  // superblock (the chained tail, reached through a j) must invalidate the
  // block and execute the patched word — in both dispatch modes.
  const std::string source =
      ".text\nmain:\n"
      "  la v1, donor\n"
      "  lw v0, 0(v1)\n"
      "  la t9, patch\n"
      "  sw v0, 0(t9)\n"
      "  j tail\n"
      "tail:\n"
      "  addi s0, s0, 1\n"
      "patch:\n"
      "  addi s1, s1, 1\n"
      "  syscall\n"
      "donor:\n"
      "  addi s1, s1, 7\n";
  const isa::Program program = isa::assemble(source);
  const Addr text_end = program.text_base + static_cast<Addr>(program.text.size() * 4);
  for (const bool chaining : {true, false}) {
    mem::MainMemory memory;
    write_program(memory, program);
    exec::BlockCache cache(memory);
    cache.set_chaining(chaining);
    exec::FastEngine engine(memory, cache, program.text_base, text_end);
    engine.set_pc(program.entry);
    ASSERT_EQ(engine.run_until(~0ull), exec::FastEngine::Stop::kSyscall);
    EXPECT_EQ(engine.reg(16), 1u) << "chaining=" << chaining;  // s0: tail ran
    EXPECT_EQ(engine.reg(17), 7u) << "chaining=" << chaining;  // s1: donor word
    EXPECT_GE(cache.stats().invalidations, 1u);
  }
}

TEST(FastEngine, StopsIllegalOutsideTextRange) {
  const isa::Program program = isa::assemble(
      ".text\nmain:\n"
      "  jr ra\n");  // ra = 0: jumps below text
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  exec::FastEngine engine(memory, cache, program.text_base,
                          program.text_base + static_cast<Addr>(program.text.size() * 4));
  engine.set_pc(program.entry);
  EXPECT_EQ(engine.run_until(~0ull), exec::FastEngine::Stop::kIllegal);
}

TEST(FastEngine, BoundaryStopIsExact) {
  std::string source = ".text\nmain:\n";
  for (int i = 0; i < 20; ++i) source += "  addi t0, t0, 1\n";
  source += "  syscall\n";
  const isa::Program program = isa::assemble(source);
  mem::MainMemory memory;
  write_program(memory, program);
  exec::BlockCache cache(memory);
  exec::FastEngine engine(memory, cache, program.text_base,
                          program.text_base + static_cast<Addr>(program.text.size() * 4));
  engine.set_pc(program.entry);
  ASSERT_EQ(engine.run_until(7), exec::FastEngine::Stop::kBoundary);
  EXPECT_EQ(engine.executed(), 7u);
  EXPECT_EQ(engine.reg(8), 7u);  // t0 incremented exactly seven times
  EXPECT_EQ(engine.pc(), program.entry + 7 * 4);
  // Resuming past the boundary finishes the remaining instructions.
  ASSERT_EQ(engine.run_until(~0ull), exec::FastEngine::Stop::kSyscall);
  EXPECT_EQ(engine.reg(8), 20u);
}

// --------------------------------------------------------------- FastSession

TEST(FastSession, StrictModeBailsOnClockRelaxedModeFinishes) {
  const std::string source =
      ".text\nmain:\n"
      "  li v0, 4\n  syscall\n"  // sys_clock: outside the strict whitelist
      "  li a0, 0\n  li v0, 1\n  syscall\n";

  SimRunner strict_runner;
  strict_runner.load_source(source);
  exec::FastSession strict(strict_runner.os());
  strict.seed_leaders(strict_runner.program());
  EXPECT_EQ(strict.run_until(1000), exec::FastSession::Status::kBail);
  EXPECT_EQ(strict.bail_reason(), exec::FastSession::BailReason::kSyscall);
  // The bail leaves consistent state ON the syscall: the cycle-accurate
  // machine finishes the program after a transplant.
  strict.transplant(strict.virtual_now());
  strict_runner.run();
  EXPECT_TRUE(strict_runner.os().finished());

  SimRunner relaxed_runner;
  relaxed_runner.load_source(source);
  exec::FastSession relaxed(relaxed_runner.os(), exec::FastSessionConfig{/*relaxed=*/true});
  relaxed.seed_leaders(relaxed_runner.program());
  EXPECT_EQ(relaxed.run_until(1000), exec::FastSession::Status::kExited);
  EXPECT_TRUE(relaxed_runner.os().finished());
  EXPECT_EQ(relaxed_runner.os().exit_code(), 0);
}

TEST(FastSession, OneCommitStreamAcrossABail) {
  // A strict session runs the prefix fast, delegates a print, and bails ON
  // sys_clock; run_to_end() hands over and the core commits the clock call
  // and everything after it.  The core's commit observer must see every
  // instruction once, in program order, with the record the classic run
  // delivers: pc, fetched word, effective address and memory value.
  const std::string source = R"(
.data
buf: .word 0x04030201
.text
main:
  la s0, buf
  lw t0, 0(s0)
  addi t0, t0, -9
  sb t0, 1(s0)
  li a0, 5
  li v0, 2
  syscall             # print_int: delegated
  li v0, 4
  syscall             # sys_clock: outside the strict whitelist, the bail
  lh t1, 0(s0)
  sw t1, 0(s0)
  li a0, 0
  li v0, 1
  syscall
)";
  struct Commit {
    Addr pc = 0;
    Word raw = 0;
    Addr eff_addr = 0;
    Word mem_value = 0;
    bool operator==(const Commit&) const = default;
  };
  const auto record = [](SimRunner& runner, std::vector<Commit>* out) {
    runner.machine().core().set_commit_observer([out](Cycle, const engine::CommitInfo& info) {
      out->push_back(Commit{info.pc, info.instr.raw, info.eff_addr, info.mem_value});
    });
  };

  SimRunner classic_runner;
  classic_runner.load_source(source);
  std::vector<Commit> classic;
  record(classic_runner, &classic);
  classic_runner.run();

  SimRunner fast_runner;
  fast_runner.load_source(source);
  std::vector<Commit> fast;
  record(fast_runner, &fast);
  exec::FastSession session(fast_runner.os());
  session.seed_leaders(fast_runner.program());
  EXPECT_EQ(session.run_to_end(), exec::FastSession::Status::kBail);
  EXPECT_EQ(session.bail_reason(), exec::FastSession::BailReason::kSyscall);
  EXPECT_EQ(session.executed(), 9u);  // the fast prefix, delegated print included
  EXPECT_TRUE(fast_runner.os().finished());
  EXPECT_EQ(fast_runner.os().output(), classic_runner.os().output());
  ASSERT_EQ(classic.size(), 15u);
  EXPECT_EQ(fast, classic);
}

// -------------------------------------------------------------- fast goldens

TEST(FastGolden, MatchesCycleAccurateGoldenOutputAndInstructions) {
  const campaign::WorkloadSetup setup = campaign::make_workload("loop");
  const campaign::GoldenRun golden = campaign::simulate_golden(setup);
  const campaign::GoldenRun fast = campaign::simulate_golden_fast(setup);
  EXPECT_EQ(fast.output, golden.output);
  EXPECT_EQ(fast.exit_code, golden.exit_code);
  EXPECT_EQ(fast.instructions, golden.instructions);
}

}  // namespace
}  // namespace rse
