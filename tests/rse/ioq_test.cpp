// Table 1 semantics of the Instruction Output Queue check/checkValid bits.
#include "rse/ioq.hpp"

#include <gtest/gtest.h>

namespace rse::engine {
namespace {

InstrTag tag(u32 slot, u64 seq) { return InstrTag{.slot = slot, .seq = seq}; }

TEST(Ioq, FreeEntryReadsZero) {
  Ioq ioq(16);
  const auto bits = ioq.observed(5);
  EXPECT_FALSE(bits.check_valid);
  EXPECT_FALSE(bits.check);
}

TEST(Ioq, NonCheckInstructionAllocatesReadyToCommit) {
  // Table 1: non-CHECK entries are '10' so the pipeline commits as usual.
  Ioq ioq(16);
  ioq.allocate(tag(3, 1), /*pending_check=*/false, isa::ModuleId::kFramework, 0);
  const auto bits = ioq.observed(3);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_FALSE(bits.check);
}

TEST(Ioq, PendingCheckAllocatesZeroZero) {
  // Table 1: a CHECK still executing reads '00' — the pipeline may stall.
  Ioq ioq(16);
  ioq.allocate(tag(3, 1), /*pending_check=*/true, isa::ModuleId::kIcm, 0);
  const auto bits = ioq.observed(3);
  EXPECT_FALSE(bits.check_valid);
  EXPECT_FALSE(bits.check);
}

TEST(Ioq, ModuleWritePassResult) {
  Ioq ioq(16);
  ioq.allocate(tag(2, 7), true, isa::ModuleId::kIcm, 0);
  ioq.module_write(tag(2, 7), /*check_valid=*/true, /*check=*/false, 5, /*safe_mode=*/false);
  const auto bits = ioq.observed(2);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_FALSE(bits.check);
}

TEST(Ioq, ModuleWriteErrorResult) {
  // Table 1: checkValid=1 + check=1 means error detected -> pipeline flush.
  Ioq ioq(16);
  ioq.allocate(tag(2, 7), true, isa::ModuleId::kIcm, 0);
  ioq.module_write(tag(2, 7), true, true, 5, false);
  const auto bits = ioq.observed(2);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_TRUE(bits.check);
}

TEST(Ioq, StaleSeqWriteIgnored) {
  Ioq ioq(16);
  ioq.allocate(tag(2, 7), true, isa::ModuleId::kIcm, 0);
  ioq.free(tag(2, 7));
  ioq.allocate(tag(2, 8), true, isa::ModuleId::kIcm, 10);
  // A lagging module writes for the dead instruction: must not hit seq 8.
  ioq.module_write(tag(2, 7), true, true, 12, false);
  EXPECT_FALSE(ioq.observed(2).check_valid);
}

TEST(Ioq, SafeModeForcesConstantOutput) {
  // Section 3.4: decoupled framework always allows commit (1, 0).
  Ioq ioq(16);
  ioq.allocate(tag(1, 3), true, isa::ModuleId::kIcm, 0);
  ioq.module_write(tag(1, 3), true, true, 5, /*safe_mode=*/true);
  const auto bits = ioq.observed(1);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_FALSE(bits.check);
}

TEST(Ioq, FreeResetsEntry) {
  Ioq ioq(16);
  ioq.allocate(tag(4, 9), false, isa::ModuleId::kFramework, 0);
  ioq.free(tag(4, 9));
  EXPECT_FALSE(ioq.entry(4).allocated);
  EXPECT_FALSE(ioq.observed(4).check_valid);
}

TEST(Ioq, FreeWithWrongSeqKeepsEntry) {
  Ioq ioq(16);
  ioq.allocate(tag(4, 9), false, isa::ModuleId::kFramework, 0);
  ioq.free(tag(4, 8));
  EXPECT_TRUE(ioq.entry(4).allocated);
}

// Stuck-at fault injection on the output bits (Table 2 row 4).
class IoqStuckFaultTest : public ::testing::TestWithParam<IoqStuckFault> {};

TEST_P(IoqStuckFaultTest, ObservedBitsReflectFault) {
  Ioq ioq(16);
  ioq.allocate(tag(6, 1), true, isa::ModuleId::kIcm, 0);
  ioq.module_write(tag(6, 1), true, false, 3, false);  // healthy: (1, 0)
  ioq.inject_stuck_fault(6, GetParam());
  const auto bits = ioq.observed(6);
  switch (GetParam()) {
    case IoqStuckFault::kNone:
      EXPECT_TRUE(bits.check_valid);
      EXPECT_FALSE(bits.check);
      break;
    case IoqStuckFault::kCheckValidStuck0:
      EXPECT_FALSE(bits.check_valid);
      break;
    case IoqStuckFault::kCheckValidStuck1:
      EXPECT_TRUE(bits.check_valid);
      break;
    case IoqStuckFault::kCheckStuck0:
      EXPECT_FALSE(bits.check);
      break;
    case IoqStuckFault::kCheckStuck1:
      EXPECT_TRUE(bits.check);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFaults, IoqStuckFaultTest,
                         ::testing::Values(IoqStuckFault::kNone, IoqStuckFault::kCheckValidStuck0,
                                           IoqStuckFault::kCheckValidStuck1,
                                           IoqStuckFault::kCheckStuck0,
                                           IoqStuckFault::kCheckStuck1));

TEST(Ioq, FaultOnlyAffectsInjectedSlot) {
  Ioq ioq(16);
  ioq.allocate(tag(1, 1), false, isa::ModuleId::kFramework, 0);
  ioq.inject_stuck_fault(6, IoqStuckFault::kCheckValidStuck0);
  EXPECT_TRUE(ioq.observed(1).check_valid);
}

}  // namespace
}  // namespace rse::engine
