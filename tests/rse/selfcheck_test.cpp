// Table 2 error scenarios of the RSE and the self-checking watchdog of
// section 3.4: no-progress modules, false-alarm storms, stuck-at output
// bits, and the safe-mode decoupling that keeps the application running.
//
// The fixture's watchdog_timeout is 100 and its alarm_threshold 3.  A tick
// at `now` trips once `now - since > 100`, so a condition that began at
// cycle `since` trips on the first tick at or past `since + 101`; the tests
// pin those exact cycles, not only that a trip happened.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "rse/framework.hpp"

namespace rse::engine {
namespace {

class SilentModule : public Module {
 public:
  using Module::Module;
  isa::ModuleId id() const override { return isa::ModuleId::kIcm; }
  const char* name() const override { return "silent"; }
};

/// Registers an enabled SilentModule and the tests' watchdog settings.
SilentModule* wire(Framework& fw) {
  auto m = std::make_unique<SilentModule>(fw);
  SilentModule* module = m.get();
  fw.add_module(std::move(m));
  module->set_enabled(true);
  SelfCheckConfig config;
  config.watchdog_timeout = 100;
  config.alarm_threshold = 3;
  fw.set_selfcheck_config(config);
  return module;
}

DispatchInfo chk(u32 slot, u64 seq) {
  DispatchInfo info;
  info.tag = {.slot = slot, .seq = seq};
  info.instr.op = isa::Op::kChk;
  info.instr.chk_module = isa::ModuleId::kIcm;
  info.instr.chk_blocking = true;
  return info;
}

/// One false alarm in `slot` at cycle `now`: the CHECK dispatches, its
/// module answers check=1, the commit unit observes the error and the flush
/// squashes the CHECK.
void raise_alarm(Framework& fw, Module& module, u32 slot, u64 seq, Cycle now) {
  fw.on_dispatch(chk(slot, seq), now);
  fw.module_write_ioq(module, {.slot = slot, .seq = seq}, true, true, now);
  fw.on_check_error(slot, now);
  fw.on_squash({.slot = slot, .seq = seq}, now);
}

struct SelfCheckFixture : ::testing::Test {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  Framework fw{memory, bus, 16};
  SilentModule* module = nullptr;
  std::vector<SelfCheckVerdict> verdicts;
  std::vector<Cycle> trip_cycles;

  void SetUp() override {
    module = wire(fw);
    fw.set_selfcheck_observer([this](SelfCheckVerdict v, Cycle now) {
      verdicts.push_back(v);
      trip_cycles.push_back(now);
    });
  }

  /// The observer saw exactly one trip, and the stats agree on its cycle.
  void expect_one_trip_at(Cycle at, SelfCheckVerdict verdict) {
    EXPECT_TRUE(fw.safe_mode());
    EXPECT_EQ(fw.verdict(), verdict);
    EXPECT_EQ(fw.stats().selfcheck_trips, 1u);
    EXPECT_EQ(fw.stats().selfcheck_trip_cycle, at);
    ASSERT_EQ(trip_cycles.size(), 1u);
    EXPECT_EQ(trip_cycles[0], at);
  }
};

TEST_F(SelfCheckFixture, NoProgressModuleTripsWatchdog) {
  // Table 2 row 1: the module never produces a result; an instruction could
  // wait forever.  The watchdog detects the missing 0->1 transition.
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 150 && !fw.safe_mode(); ++c) fw.tick(c);
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kNoProgress);
  ASSERT_EQ(verdicts.size(), 1u);
  expect_one_trip_at(101, SelfCheckVerdict::kNoProgress);  // allocated at 0
  // Decoupled: the stuck CHECK is released so the pipeline can commit.
  EXPECT_TRUE(fw.check_bits(0).check_valid);
  EXPECT_FALSE(fw.check_bits(0).check);
}

TEST_F(SelfCheckFixture, HealthyCheckDoesNotTrip) {
  fw.on_dispatch(chk(0, 1), 0);
  fw.module_write_ioq(*module, {.slot = 0, .seq = 1}, true, false, 5);
  CommitInfo info;
  info.tag = {.slot = 0, .seq = 1};
  info.instr.op = isa::Op::kChk;
  info.instr.chk_module = isa::ModuleId::kIcm;
  fw.on_commit(info, 10);
  for (Cycle c = 1; c <= 400; ++c) fw.tick(c);
  EXPECT_FALSE(fw.safe_mode());
}

TEST_F(SelfCheckFixture, FalseAlarmStormTripsThresholdCounter) {
  // Table 2 row 2: the module always declares an error; the pipeline would
  // flush and retry the same CHECK forever.  Each retry lands in the same
  // IOQ slot; the commit stage observes check=1 there every time, so the
  // per-entry error-transition counter crosses the threshold within the
  // watchdog window.
  for (u64 retry = 1; retry <= 5 && !fw.safe_mode(); ++retry) {
    fw.on_dispatch(chk(0, retry), 10 * retry);
    fw.module_write_ioq(*module, {.slot = 0, .seq = retry}, true, true, 10 * retry + 1);
    fw.on_check_error(0, 10 * retry + 2);                     // commit observed the error
    fw.on_squash({.slot = 0, .seq = retry}, 10 * retry + 2);  // the flush squashes the CHECK
    fw.tick(10 * retry + 3);
  }
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kFalseAlarmStorm);
  // The fourth alarm (one over the threshold) lands at 42; its tick trips.
  expect_one_trip_at(43, SelfCheckVerdict::kFalseAlarmStorm);
}

TEST_F(SelfCheckFixture, StuckAt1CheckFieldStormAlsoTrips) {
  // Table 2 row 4 last case: check stuck-at-1 causes repeated flushes at the
  // same slot; the same commit-side counter catches it even though no module
  // ever wrote the bit.
  fw.ioq().inject_stuck_fault(0, IoqStuckFault::kCheckStuck1);
  for (u64 retry = 1; retry <= 5 && !fw.safe_mode(); ++retry) {
    fw.on_dispatch(chk(0, retry), 10 * retry);
    fw.on_check_error(0, 10 * retry + 2);
    fw.on_squash({.slot = 0, .seq = retry}, 10 * retry + 2);
    fw.tick(10 * retry + 3);
  }
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kFalseAlarmStorm);
  expect_one_trip_at(43, SelfCheckVerdict::kFalseAlarmStorm);
  // Decoupled output lets the pipeline commit despite the stuck bit.
  fw.on_dispatch(chk(1, 9), 100);
  EXPECT_TRUE(fw.check_bits(1).check_valid);
  EXPECT_FALSE(fw.check_bits(1).check);
}

TEST_F(SelfCheckFixture, StuckAt1CheckValidOnFreeEntryDetected) {
  // Table 2 row 4: a free IOQ entry reading 1 means a stuck-at-1 output.
  fw.ioq().inject_stuck_fault(5, IoqStuckFault::kCheckValidStuck1);
  for (Cycle c = 1; c <= 200 && !fw.safe_mode(); ++c) fw.tick(c);
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kStuckAt1);
  // The first tick (1) sees the free entry read high.
  expect_one_trip_at(102, SelfCheckVerdict::kStuckAt1);
}

TEST_F(SelfCheckFixture, StuckAt1CheckOnFreeEntryDetected) {
  fw.ioq().inject_stuck_fault(7, IoqStuckFault::kCheckStuck1);
  for (Cycle c = 1; c <= 200 && !fw.safe_mode(); ++c) fw.tick(c);
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kStuckAt1);
  expect_one_trip_at(102, SelfCheckVerdict::kStuckAt1);
}

TEST_F(SelfCheckFixture, StuckAt0CheckValidLooksLikeNoProgress) {
  // Table 2: stuck-at-0 of checkValid is equivalent to a module that makes
  // no progress — and is handled by the same watchdog path.
  fw.ioq().inject_stuck_fault(0, IoqStuckFault::kCheckValidStuck0);
  fw.on_dispatch(chk(0, 1), 0);
  fw.module_write_ioq(*module, {.slot = 0, .seq = 1}, true, false, 2);  // module DID answer
  for (Cycle c = 1; c <= 200 && !fw.safe_mode(); ++c) fw.tick(c);
  EXPECT_TRUE(fw.safe_mode());
  EXPECT_EQ(fw.verdict(), SelfCheckVerdict::kNoProgress);
  expect_one_trip_at(101, SelfCheckVerdict::kNoProgress);
}

TEST_F(SelfCheckFixture, SafeModeOverridesAllSubsequentWrites) {
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 150; ++c) fw.tick(c);
  ASSERT_TRUE(fw.safe_mode());
  fw.on_dispatch(chk(1, 2), 200);
  fw.module_write_ioq(*module, {.slot = 1, .seq = 2}, true, true, 201);  // module says error
  EXPECT_TRUE(fw.check_bits(1).check_valid);
  EXPECT_FALSE(fw.check_bits(1).check);  // safe mode: always commit
}

TEST_F(SelfCheckFixture, SafeModeChksToLiveModuleCommitImmediately) {
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 150; ++c) fw.tick(c);
  ASSERT_TRUE(fw.safe_mode());
  fw.on_dispatch(chk(2, 3), 200);
  EXPECT_TRUE(fw.check_bits(2).check_valid);
}

TEST_F(SelfCheckFixture, RecoupleRestoresChecking) {
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 150; ++c) fw.tick(c);
  ASSERT_TRUE(fw.safe_mode());
  CommitInfo info;
  info.tag = {.slot = 0, .seq = 1};
  info.instr.op = isa::Op::kChk;
  info.instr.chk_module = isa::ModuleId::kIcm;
  fw.on_commit(info, 160);
  fw.recouple();
  EXPECT_FALSE(fw.safe_mode());
  fw.on_dispatch(chk(1, 2), 200);
  EXPECT_FALSE(fw.check_bits(1).check_valid);  // pending again
}

TEST_F(SelfCheckFixture, DisabledSelfCheckNeverTrips) {
  SelfCheckConfig config;
  config.enabled = false;
  fw.set_selfcheck_config(config);
  fw.on_dispatch(chk(0, 1), 0);
  for (Cycle c = 1; c <= 1000; ++c) fw.tick(c);
  EXPECT_FALSE(fw.safe_mode());
}

// ---- edge cases of the watchdog's timing ----------------------------------

TEST_F(SelfCheckFixture, AlarmOverThresholdOnTheWindowExpiryTickDoesNotTrip) {
  // The window opened at cycle 0 and expires on the tick at 101.  That tick
  // clears the per-entry counters before it compares them, so a fourth
  // alarm landing on the same tick starts the new window at 1, not 4.
  for (Cycle c = 1; c <= 400; ++c) {
    if (c == 25 || c == 50 || c == 75 || c == 101) raise_alarm(fw, *module, 0, c, c);
    fw.tick(c);
  }
  EXPECT_FALSE(fw.safe_mode());
  EXPECT_EQ(fw.stats().selfcheck_trips, 0u);
  EXPECT_EQ(fw.stats().selfcheck_trip_cycle, 0u);
  EXPECT_EQ(fw.stats().errors_reported, 4u);
}

TEST_F(SelfCheckFixture, AlarmOverThresholdOneTickBeforeTheWindowExpiresTrips) {
  // The control for the test above: one cycle earlier the window is still
  // open and the fourth alarm trips on its own tick.
  for (Cycle c = 1; c <= 400 && !fw.safe_mode(); ++c) {
    if (c == 25 || c == 50 || c == 75 || c == 100) raise_alarm(fw, *module, 0, c, c);
    fw.tick(c);
  }
  expect_one_trip_at(100, SelfCheckVerdict::kFalseAlarmStorm);
}

TEST_F(SelfCheckFixture, NoProgressTripsBetweenTwoWindowResets) {
  // The alarm window resets on the ticks at 101 and 202.  A CHECK dispatched
  // at 50 is overdue on the tick at 151, between the two.
  for (Cycle c = 1; c <= 300 && !fw.safe_mode(); ++c) {
    if (c == 50) fw.on_dispatch(chk(0, 1), c);
    fw.tick(c);
  }
  expect_one_trip_at(151, SelfCheckVerdict::kNoProgress);
}

TEST_F(SelfCheckFixture, SkippedTicksTripNoProgressOnTheFirstTickPastTheDeadline) {
  // Machine::warp_to moves the clock without ticking the framework, so the
  // watchdog only sees the next tick.  The CHECK's deadline is 101; the
  // first tick at or past it trips.
  fw.on_dispatch(chk(0, 1), 0);
  fw.tick(1);
  fw.tick(60);
  EXPECT_FALSE(fw.safe_mode());
  fw.tick(350);
  expect_one_trip_at(350, SelfCheckVerdict::kNoProgress);
}

TEST_F(SelfCheckFixture, SkippedTicksTripStuckAt1FromTheFirstTickThatSawIt) {
  // A free entry that reads high starts its timer on the first tick that
  // sees it (5), not when the fault was injected (0).
  fw.ioq().inject_stuck_fault(3, IoqStuckFault::kCheckValidStuck1);
  fw.tick(5);
  fw.tick(50);
  fw.tick(105);  // 105 - 5 == 100: not yet
  EXPECT_FALSE(fw.safe_mode());
  fw.tick(106);
  expect_one_trip_at(106, SelfCheckVerdict::kStuckAt1);
}

TEST_F(SelfCheckFixture, SkippedTicksResetTheAlarmWindowOnTheTickThatSeesItExpire) {
  // Three alarms at 10/20/30, then the clock jumps to 200: that tick finds
  // the window expired, clears the counters and opens a new window at 200.
  // Four alarms inside the new window are needed to trip.
  for (Cycle c : {10, 20, 30}) {
    raise_alarm(fw, *module, 0, c, c);
    fw.tick(c);
  }
  fw.tick(200);
  for (Cycle c : {250, 260, 270}) {
    raise_alarm(fw, *module, 0, c, c);
    fw.tick(c);
  }
  EXPECT_FALSE(fw.safe_mode());
  raise_alarm(fw, *module, 0, 280, 280);
  fw.tick(280);
  expect_one_trip_at(280, SelfCheckVerdict::kFalseAlarmStorm);
}

/// Runs `script` (events applied before each tick) on a fresh framework
/// until it trips or reaches cycle 400.  With `round_trip_at` set, the
/// framework's state is written to a snapshot archive after that cycle's
/// tick and read back into another fresh framework, which carries on.
std::pair<Cycle, SelfCheckVerdict> trip_of(
    const std::function<void(Framework&, Module&, Cycle)>& script, Cycle round_trip_at = 0) {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  auto first = std::make_unique<Framework>(memory, bus, 16);
  Module* module = wire(*first);
  std::unique_ptr<Framework> restored;
  Framework* fw = first.get();
  for (Cycle c = 1; c <= 400 && !fw->safe_mode(); ++c) {
    script(*fw, *module, c);
    fw->tick(c);
    if (c == round_trip_at) {
      snap::Writer writer;
      fw->serialize_state(writer);
      const std::vector<u8> bytes = writer.take();
      restored = std::make_unique<Framework>(memory, bus, 16);
      module = wire(*restored);
      snap::Reader reader(bytes);
      restored->serialize_state(reader);
      EXPECT_TRUE(reader.exhausted());
      fw = restored.get();
    }
  }
  return {fw->stats().selfcheck_trip_cycle, fw->verdict()};
}

TEST(SelfCheckRoundTrip, MidWindowRoundTripTripsOnTheSameCycleAsItsTwin) {
  // The window resets at 101 and would next reset at 202.  A CHECK left
  // unanswered since 95 is due at 196, between the two; three alarms in
  // slot 0 at 120/130/140 sit one under the threshold.  The round trip at
  // 150 must carry the counters, the window start and the pending entry.
  const auto pending_and_alarms = [](Framework& fw, Module& module, Cycle c) {
    if (c == 95) fw.on_dispatch(chk(1, 1000), c);
    if (c == 120 || c == 130 || c == 140) raise_alarm(fw, module, 0, c, c);
  };
  const auto twin = trip_of(pending_and_alarms);
  EXPECT_EQ(twin, std::make_pair(Cycle{196}, SelfCheckVerdict::kNoProgress));
  EXPECT_EQ(trip_of(pending_and_alarms, /*round_trip_at=*/150), twin);

  // A fourth alarm at 160, after the round trip, crosses the threshold
  // only if the three before it survived.
  const auto one_more_alarm = [&](Framework& fw, Module& module, Cycle c) {
    pending_and_alarms(fw, module, c);
    if (c == 160) raise_alarm(fw, module, 0, c, c);
  };
  const auto storm_twin = trip_of(one_more_alarm);
  EXPECT_EQ(storm_twin, std::make_pair(Cycle{160}, SelfCheckVerdict::kFalseAlarmStorm));
  EXPECT_EQ(trip_of(one_more_alarm, /*round_trip_at=*/150), storm_twin);
}

}  // namespace
}  // namespace rse::engine
