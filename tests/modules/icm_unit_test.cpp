// White-box ICM tests against a bare framework (no core): CHECK/checked
// pairing, Icm_Cache block-fetch spatial locality, squash handling, and
// checker-memory layout.
#include <gtest/gtest.h>

#include "mem/bus.hpp"
#include "mem/main_memory.hpp"
#include "modules/icm/icm.hpp"
#include "rse/framework.hpp"

namespace rse::modules {
namespace {

struct IcmUnit : ::testing::Test {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  engine::Framework fw{memory, bus, 16};
  IcmModule* icm = nullptr;
  Cycle clock = 0;

  void SetUp() override {
    auto module = std::make_unique<IcmModule>(fw);
    icm = module.get();
    fw.add_module(std::move(module));
    icm->set_enabled(true);
  }

  engine::DispatchInfo chk(u32 slot, u64 seq) {
    engine::DispatchInfo info;
    info.tag = {.slot = slot, .seq = seq};
    info.instr.op = isa::Op::kChk;
    info.instr.chk_module = isa::ModuleId::kIcm;
    info.instr.chk_blocking = true;
    return info;
  }

  engine::DispatchInfo checked(u32 slot, u64 seq, Addr pc, Word raw) {
    engine::DispatchInfo info;
    info.tag = {.slot = slot, .seq = seq};
    info.pc = pc;
    info.instr = isa::decode(raw);
    return info;
  }

  /// Dispatch a chk+instruction pair through the framework and tick until
  /// the IOQ answers or the budget runs out; returns the check bits.
  engine::Ioq::CheckBits run_pair(u32 slot, u64 seq, Addr pc, Word raw, Cycle budget = 500) {
    fw.on_dispatch(chk(slot, seq), clock);
    fw.on_dispatch(checked(slot + 1, seq + 1, pc, raw), clock);
    for (Cycle c = 0; c < budget; ++c) {
      fw.tick(++clock);
      const auto bits = fw.check_bits(slot);
      if (bits.check_valid) return bits;
    }
    return fw.check_bits(slot);
  }
};

TEST_F(IcmUnit, MatchingCopyPasses) {
  icm->register_checked_instruction(0x400010, 0x01284820);
  const auto bits = run_pair(0, 1, 0x400010, 0x01284820);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_FALSE(bits.check);
  EXPECT_EQ(icm->stats().mismatches, 0u);
}

TEST_F(IcmUnit, CorruptedBinaryFlagged) {
  icm->register_checked_instruction(0x400010, 0x01284820);
  const auto bits = run_pair(0, 1, 0x400010, 0x01284820 ^ 0x00FF0000);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_TRUE(bits.check);
  EXPECT_EQ(icm->stats().mismatches, 1u);
}

TEST_F(IcmUnit, EveryBitPositionDetected) {
  // Single-bit flips at every position must all mismatch.
  const Word golden = 0x0128A020;
  for (unsigned bit = 0; bit < 32; ++bit) {
    const Addr pc = 0x400000 + bit * 4;
    icm->register_checked_instruction(pc, golden);
  }
  for (unsigned bit = 0; bit < 32; ++bit) {
    const Addr pc = 0x400000 + bit * 4;
    const auto bits = run_pair((bit * 2) % 14, 100 + bit * 2, pc, golden ^ (1u << bit));
    EXPECT_TRUE(bits.check_valid) << "bit " << bit;
    EXPECT_TRUE(bits.check) << "bit " << bit;
  }
  EXPECT_EQ(icm->stats().mismatches, 32u);
}

TEST_F(IcmUnit, BlockFetchBringsNeighborsIntoCache) {
  // Contiguous CheckerMemory placement: one MAU fetch covers the block, so
  // neighbors registered in program order hit without further misses.
  for (int i = 0; i < 8; ++i) {
    icm->register_checked_instruction(0x400100 + i * 4, 0x2000000u + i);
  }
  run_pair(0, 1, 0x400100, 0x2000000u);  // miss: fetches the whole block
  EXPECT_EQ(icm->stats().cache_misses, 1u);
  for (int i = 1; i < 8; ++i) {
    run_pair((2 * i) % 14, 10 + 2 * i, 0x400100 + i * 4, 0x2000000u + i);
  }
  EXPECT_EQ(icm->stats().cache_misses, 1u);  // all neighbors hit
  EXPECT_EQ(icm->stats().cache_hits, 7u);
}

TEST_F(IcmUnit, SquashedChkDropsPendingCheck) {
  icm->register_checked_instruction(0x400010, 0x01284820);
  fw.on_dispatch(chk(0, 1), clock);
  fw.on_squash({.slot = 0, .seq = 1}, clock);
  for (Cycle c = 0; c < 50; ++c) fw.tick(++clock);
  // No stuck pending state: a later pair still works and the dead CHECK
  // never wrote the IOQ.
  EXPECT_EQ(icm->stats().checks_started, 0u);
  const auto bits = run_pair(4, 9, 0x400010, 0x01284820);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_FALSE(bits.check);
}

TEST_F(IcmUnit, SquashedCheckedInstructionDropsCheck) {
  icm->register_checked_instruction(0x400010, 0x01284820);
  fw.on_dispatch(chk(0, 1), clock);
  fw.on_dispatch(checked(1, 2, 0x400010, 0x01284820), clock);
  ++clock;
  fw.tick(clock);  // the pair is formed
  fw.on_squash({.slot = 1, .seq = 2}, clock);  // the checked instruction dies (wrong path)
  fw.on_squash({.slot = 0, .seq = 1}, clock);
  for (Cycle c = 0; c < 100; ++c) fw.tick(++clock);
  // The module drained its pending state without writing a freed entry.
  const auto bits = run_pair(6, 11, 0x400010, 0x01284820);
  EXPECT_TRUE(bits.check_valid);
}

TEST_F(IcmUnit, ReRegistrationRefreshesTheCopy) {
  icm->register_checked_instruction(0x400010, 0x01284820);
  icm->register_checked_instruction(0x400010, 0xDEADBEEF);  // program reloaded
  const auto bits = run_pair(0, 1, 0x400010, 0xDEADBEEF);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_FALSE(bits.check);
}

TEST_F(IcmUnit, ClearCheckerMemoryResetsLayout) {
  icm->register_checked_instruction(0x400010, 0x01284820);
  icm->clear_checker_memory();
  icm->register_checked_instruction(0x400020, 0x11111111);
  const auto bits = run_pair(0, 1, 0x400020, 0x11111111);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_FALSE(bits.check);
  // The old PC is unknown now: completes as MATCH with the unknown_pc stat.
  const auto old = run_pair(4, 10, 0x400010, 0x01284820);
  EXPECT_TRUE(old.check_valid);
  EXPECT_FALSE(old.check);
  EXPECT_EQ(icm->stats().unknown_pc, 1u);
}

TEST_F(IcmUnit, BackToBackChecksAllComplete) {
  for (int i = 0; i < 6; ++i) {
    icm->register_checked_instruction(0x400200 + i * 4, 0x3000000u + i);
  }
  // Dispatch three pairs in the same cycle (a full dispatch group).
  fw.on_dispatch(chk(0, 1), clock);
  fw.on_dispatch(checked(1, 2, 0x400200, 0x3000000u), clock);
  fw.on_dispatch(chk(2, 3), clock);
  fw.on_dispatch(checked(3, 4, 0x400204, 0x3000001u), clock);
  fw.on_dispatch(chk(4, 5), clock);
  fw.on_dispatch(checked(5, 6, 0x400208, 0x3000002u), clock);
  for (Cycle c = 0; c < 500; ++c) fw.tick(++clock);
  EXPECT_TRUE(fw.check_bits(0).check_valid);
  EXPECT_TRUE(fw.check_bits(2).check_valid);
  EXPECT_TRUE(fw.check_bits(4).check_valid);
  EXPECT_EQ(icm->stats().checks_completed, 3u);
  EXPECT_EQ(icm->stats().mismatches, 0u);
}

}  // namespace
}  // namespace rse::modules
