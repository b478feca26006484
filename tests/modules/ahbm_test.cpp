// Adaptive Heartbeat Monitor: registration CAM, counter updates, adaptive
// timeout estimation, hang detection, and the fixed-timeout ablation mode.
#include "modules/ahbm/ahbm.hpp"

#include <gtest/gtest.h>

#include "mem/bus.hpp"
#include "mem/main_memory.hpp"
#include "rse/framework.hpp"

namespace rse::modules {
namespace {

struct AhbmFixture : ::testing::Test {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  engine::Framework fw{memory, bus, 16};
  AhbmModule* ahbm = nullptr;
  std::vector<std::pair<u32, Cycle>> hangs;

  void configure(AhbmConfig config) {
    auto module = std::make_unique<AhbmModule>(fw, config);
    ahbm = module.get();
    fw.add_module(std::move(module));
    ahbm->set_enabled(true);
    ahbm->set_hang_handler([this](u32 entity, Cycle now, Cycle) { hangs.push_back({entity, now}); });
  }

  void SetUp() override {
    AhbmConfig config;
    config.sample_interval = 100;
    config.min_timeout = 200;
    configure(config);
  }

  /// Beat entity regularly every `gap` cycles from `from` to `to`.
  void beat_regularly(u32 entity, Cycle from, Cycle to, Cycle gap) {
    for (Cycle c = from; c <= to; c += gap) ahbm->beat(entity, c);
  }

  void tick_range(Cycle from, Cycle to) {
    for (Cycle c = from; c <= to; ++c) ahbm->tick(c);
  }
};

TEST_F(AhbmFixture, RegisterAndBeatUpdatesCounter) {
  EXPECT_TRUE(ahbm->register_entity(7, 0));
  ahbm->beat(7, 10);
  ahbm->beat(7, 20);
  EXPECT_EQ(ahbm->stats().beats_received, 2u);
}

TEST_F(AhbmFixture, BeatToUnregisteredEntityIgnored) {
  ahbm->beat(42, 10);
  EXPECT_EQ(ahbm->stats().beats_received, 0u);
}

TEST_F(AhbmFixture, CamCapacityBounded) {
  AhbmConfig config;
  config.entity_slots = 2;
  fw.recouple();
  engine::Framework fw2{memory, bus, 16};
  AhbmModule small(fw2, config);
  EXPECT_TRUE(small.register_entity(1, 0));
  EXPECT_TRUE(small.register_entity(2, 0));
  EXPECT_FALSE(small.register_entity(3, 0));
  small.unregister_entity(1);
  EXPECT_TRUE(small.register_entity(3, 0));
}

TEST_F(AhbmFixture, HealthyEntityNeverDeclaredHung) {
  ahbm->register_entity(1, 0);
  Cycle t = 0;
  for (int i = 0; i < 200; ++i) {
    t += 50;
    ahbm->beat(1, t);
    tick_range(t - 49, t);
  }
  EXPECT_TRUE(hangs.empty());
}

TEST_F(AhbmFixture, SilentEntityDetected) {
  ahbm->register_entity(1, 0);
  beat_regularly(1, 50, 1000, 50);
  tick_range(1, 1000);
  ASSERT_TRUE(hangs.empty());
  // The entity goes silent; detection follows within a few timeouts.
  tick_range(1001, 5000);
  ASSERT_EQ(hangs.size(), 1u);
  EXPECT_EQ(hangs[0].first, 1u);
  EXPECT_GT(hangs[0].second, 1000u);
}

TEST_F(AhbmFixture, AdaptiveTimeoutTracksBeatRate) {
  ahbm->register_entity(1, 0);
  ahbm->register_entity(2, 0);
  // Entity 1 beats every 50 cycles; entity 2 every 400.
  for (Cycle c = 1; c <= 4000; ++c) {
    if (c % 50 == 0) ahbm->beat(1, c);
    if (c % 400 == 0) ahbm->beat(2, c);
    ahbm->tick(c);
  }
  const Cycle timeout1 = ahbm->timeout_of(1).value();
  const Cycle timeout2 = ahbm->timeout_of(2).value();
  EXPECT_LT(timeout1, timeout2);  // slower heart -> longer rope
  EXPECT_GE(timeout2, 400u);
}

TEST_F(AhbmFixture, SlowEntityNotFalselyAccused) {
  // A 400-cycle heart must not trip a detector that adapted to it, even
  // though a 200-cycle min timeout would have flagged it under a fixed
  // aggressive setting.
  ahbm->register_entity(2, 0);
  for (Cycle c = 1; c <= 8000; ++c) {
    if (c % 400 == 0) ahbm->beat(2, c);
    ahbm->tick(c);
  }
  EXPECT_TRUE(hangs.empty());
}

TEST_F(AhbmFixture, ResumedEntityCountsFalseResume) {
  ahbm->register_entity(1, 0);
  beat_regularly(1, 50, 500, 50);
  tick_range(1, 3000);  // goes silent -> declared hung
  ASSERT_EQ(hangs.size(), 1u);
  ahbm->beat(1, 3001);  // it was merely slow
  EXPECT_EQ(ahbm->stats().false_resumes, 1u);
  // And it can be detected again after a second silence.
  beat_regularly(1, 3050, 3500, 50);
  tick_range(3002, 9000);
  EXPECT_EQ(hangs.size(), 2u);
}

TEST_F(AhbmFixture, FixedTimeoutMode) {
  AhbmConfig config;
  config.adaptive = false;
  config.fixed_timeout = 300;
  config.sample_interval = 100;
  engine::Framework fw2{memory, bus, 16};
  AhbmModule fixed(fw2, config);
  std::vector<u32> detected;
  fixed.set_hang_handler([&](u32 entity, Cycle, Cycle) { detected.push_back(entity); });
  fixed.register_entity(1, 0);
  // Beats every 400 > fixed 300: false alarm by design.
  for (Cycle c = 1; c <= 2000; ++c) {
    if (c % 400 == 0) fixed.beat(1, c);
    fixed.tick(c);
  }
  EXPECT_FALSE(detected.empty());
}

TEST_F(AhbmFixture, ChkInstructionsDriveTheModule) {
  engine::DispatchInfo chk;
  chk.tag = {.slot = 0, .seq = 1};
  chk.instr.op = isa::Op::kChk;
  chk.instr.chk_module = isa::ModuleId::kAhbm;
  chk.instr.chk_op = kAhbmOpRegister;
  chk.operands[0] = 5;
  chk.operand_count = 1;
  fw.ioq().allocate(chk.tag, true, isa::ModuleId::kAhbm, 0);
  ahbm->on_dispatch(chk, 0);
  EXPECT_TRUE(fw.check_bits(0).check_valid);  // non-blocking ack
  EXPECT_EQ(ahbm->stats().registrations, 1u);

  chk.instr.chk_op = kAhbmOpBeat;
  chk.tag = {.slot = 1, .seq = 2};
  fw.ioq().allocate(chk.tag, true, isa::ModuleId::kAhbm, 1);
  ahbm->on_dispatch(chk, 1);
  EXPECT_EQ(ahbm->stats().beats_received, 1u);

  chk.instr.chk_op = kAhbmOpUnregister;
  chk.tag = {.slot = 2, .seq = 3};
  fw.ioq().allocate(chk.tag, true, isa::ModuleId::kAhbm, 2);
  ahbm->on_dispatch(chk, 2);
  ahbm->beat(5, 10);
  EXPECT_EQ(ahbm->stats().beats_received, 1u);  // unregistered: ignored
}

}  // namespace
}  // namespace rse::modules
