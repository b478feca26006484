#include "rse/framework.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "isa/assembler.hpp"

namespace rse::engine {
namespace {

/// Records everything the framework routes to it.
class StubModule : public Module {
 public:
  using Module::Module;
  isa::ModuleId id() const override { return isa::ModuleId::kIcm; }
  const char* name() const override { return "stub"; }

  void on_dispatch(const DispatchInfo& info, Cycle now) override {
    dispatches.push_back({info, now});
  }
  void on_commit(const CommitInfo& info, Cycle now) override { commits.push_back({info, now}); }
  Cycle on_store_commit(const CommitInfo&, Cycle) override {
    ++store_commits;
    return store_stall;
  }
  void on_squash(const InstrTag& tag, Cycle) override { squashes.push_back(tag); }
  void tick(Cycle now) override { last_tick = now; }
  void reset() override { ++resets; }

  std::vector<std::pair<DispatchInfo, Cycle>> dispatches;
  std::vector<std::pair<CommitInfo, Cycle>> commits;
  std::vector<InstrTag> squashes;
  u32 store_commits = 0;
  Cycle store_stall = 0;
  Cycle last_tick = 0;
  u32 resets = 0;
};

struct FrameworkFixture : ::testing::Test {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  Framework fw{memory, bus, 16};
  StubModule* stub = nullptr;

  void SetUp() override {
    auto module = std::make_unique<StubModule>(fw);
    stub = module.get();
    fw.add_module(std::move(module));
    stub->set_enabled(true);
    stub->resets = 0;
  }

  static DispatchInfo make_dispatch(u32 slot, u64 seq, isa::Op op) {
    DispatchInfo info;
    info.tag = {.slot = slot, .seq = seq};
    info.instr.op = op;
    info.pc = 0x400000 + slot * 4;
    return info;
  }

  static DispatchInfo make_chk(u32 slot, u64 seq, isa::ModuleId module, bool blocking) {
    DispatchInfo info;
    info.tag = {.slot = slot, .seq = seq};
    info.instr.op = isa::Op::kChk;
    info.instr.chk_module = module;
    info.instr.chk_blocking = blocking;
    return info;
  }
};

TEST_F(FrameworkFixture, DispatchEventsVisibleOneCycleLater) {
  fw.on_dispatch(make_dispatch(0, 1, isa::Op::kAdd), 10);
  fw.tick(10);
  EXPECT_TRUE(stub->dispatches.empty());  // latch delay (Table 3)
  fw.tick(11);
  ASSERT_EQ(stub->dispatches.size(), 1u);
  EXPECT_EQ(stub->dispatches[0].second, 11u);
}

TEST_F(FrameworkFixture, NonChkAllocatesCommittableIoqEntry) {
  fw.on_dispatch(make_dispatch(2, 1, isa::Op::kAdd), 5);
  const auto bits = fw.check_bits(2);
  EXPECT_TRUE(bits.check_valid);
  EXPECT_FALSE(bits.check);
}

TEST_F(FrameworkFixture, ChkToEnabledModulePends) {
  fw.on_dispatch(make_chk(3, 1, isa::ModuleId::kIcm, true), 5);
  EXPECT_FALSE(fw.check_bits(3).check_valid);
}

TEST_F(FrameworkFixture, ChkToDisabledModuleCommitsImmediately) {
  // Section 3.2: the enable/disable unit writes a constant (1,0) for
  // disabled modules.
  stub->set_enabled(false);
  fw.on_dispatch(make_chk(3, 1, isa::ModuleId::kIcm, true), 5);
  EXPECT_TRUE(fw.check_bits(3).check_valid);
  EXPECT_FALSE(fw.check_bits(3).check);
}

TEST_F(FrameworkFixture, ChkToAbsentModuleCommitsImmediately) {
  fw.on_dispatch(make_chk(4, 1, isa::ModuleId::kDdt, true), 5);
  EXPECT_TRUE(fw.check_bits(4).check_valid);
}

TEST_F(FrameworkFixture, ModuleWriteReachesIoq) {
  fw.on_dispatch(make_chk(3, 1, isa::ModuleId::kIcm, true), 5);
  fw.module_write_ioq(*stub, {.slot = 3, .seq = 1}, true, false, 8);
  EXPECT_TRUE(fw.check_bits(3).check_valid);
}

TEST_F(FrameworkFixture, FrameChkEnablesAndDisablesModulesAtDispatch) {
  stub->set_enabled(false);
  DispatchInfo enable;
  enable.tag = {.slot = 0, .seq = 1};
  enable.instr.op = isa::Op::kChk;
  enable.instr.chk_module = isa::ModuleId::kFramework;
  enable.instr.chk_op = kFrameOpEnableModule;
  enable.instr.chk_imm = static_cast<u16>(isa::ModuleId::kIcm);
  fw.on_dispatch(enable, 10);
  EXPECT_TRUE(stub->enabled());
  // A CHECK to the module dispatched right after the enable already pends.
  fw.on_dispatch(make_chk(1, 2, isa::ModuleId::kIcm, true), 10);
  EXPECT_FALSE(fw.check_bits(1).check_valid);

  DispatchInfo disable = enable;
  disable.tag = {.slot = 2, .seq = 3};
  disable.instr.chk_op = kFrameOpDisableModule;
  fw.on_dispatch(disable, 11);
  EXPECT_FALSE(stub->enabled());
  EXPECT_EQ(fw.stats().module_enables, 1u);
  EXPECT_EQ(fw.stats().module_disables, 1u);

  // Wrong-path enable CHECKs never take effect.
  DispatchInfo speculative = enable;
  speculative.tag = {.slot = 3, .seq = 4};
  speculative.wrong_path = true;
  fw.on_dispatch(speculative, 12);
  EXPECT_FALSE(stub->enabled());
}

TEST_F(FrameworkFixture, CommitFreesIoqAndNotifiesModules) {
  fw.on_dispatch(make_dispatch(1, 1, isa::Op::kAdd), 5);
  CommitInfo info;
  info.tag = {.slot = 1, .seq = 1};
  info.instr.op = isa::Op::kAdd;
  fw.on_commit(info, 8);
  fw.tick(9);
  ASSERT_EQ(stub->commits.size(), 1u);
  EXPECT_FALSE(fw.ioq().entry(1).allocated);
}

TEST_F(FrameworkFixture, StoreCommitStallIsSynchronousAndSummed) {
  stub->store_stall = 7;
  CommitInfo store;
  store.tag = {.slot = 1, .seq = 1};
  store.instr.op = isa::Op::kSw;
  const Cycle stall = fw.on_commit(store, 8);
  EXPECT_EQ(stall, 7u);
  EXPECT_EQ(stub->store_commits, 1u);
}

TEST_F(FrameworkFixture, DisabledModuleGetsNoEvents) {
  stub->set_enabled(false);
  fw.on_dispatch(make_dispatch(0, 1, isa::Op::kAdd), 5);
  fw.tick(6);
  EXPECT_TRUE(stub->dispatches.empty());
}

TEST_F(FrameworkFixture, SquashFreesEntriesAndNotifies) {
  fw.on_dispatch(make_chk(2, 1, isa::ModuleId::kIcm, true), 5);
  fw.on_squash({.slot = 2, .seq = 1}, 6);
  fw.tick(7);
  ASSERT_EQ(stub->squashes.size(), 1u);
  EXPECT_FALSE(fw.ioq().entry(2).allocated);
  EXPECT_EQ(fw.stats().squashes_seen, 1u);
}

TEST_F(FrameworkFixture, ModuleFaultModesRewriteResults) {
  fw.on_dispatch(make_chk(1, 1, isa::ModuleId::kIcm, true), 0);
  stub->inject_fault(ModuleFaultMode::kFalseAlarm);
  fw.module_write_ioq(*stub, {.slot = 1, .seq = 1}, true, false, 2);
  EXPECT_TRUE(fw.check_bits(1).check);

  fw.on_dispatch(make_chk(2, 2, isa::ModuleId::kIcm, true), 0);
  stub->inject_fault(ModuleFaultMode::kFalseNegative);
  fw.module_write_ioq(*stub, {.slot = 2, .seq = 2}, true, true, 2);
  EXPECT_TRUE(fw.check_bits(2).check_valid);
  EXPECT_FALSE(fw.check_bits(2).check);

  fw.on_dispatch(make_chk(3, 3, isa::ModuleId::kIcm, true), 0);
  stub->inject_fault(ModuleFaultMode::kNoProgress);
  fw.module_write_ioq(*stub, {.slot = 3, .seq = 3}, true, false, 2);
  EXPECT_FALSE(fw.check_bits(3).check_valid);
}

TEST_F(FrameworkFixture, ResetClearsModulesAndQueues) {
  fw.on_dispatch(make_dispatch(0, 1, isa::Op::kAdd), 5);
  fw.reset();
  EXPECT_FALSE(fw.ioq().entry(0).allocated);
  EXPECT_EQ(stub->resets, 1u);
  fw.tick(6);
  EXPECT_TRUE(stub->dispatches.empty());  // pending events dropped
}

/// Declares `hooks` but overrides every hook, logging each call it receives
/// (its name, then the hook) into a log it may share with other modules.
class DeclaringModule : public Module {
 public:
  using Log = std::vector<std::pair<std::string, Hook>>;
  DeclaringModule(Framework& fw, isa::ModuleId id, std::string name, HookSet hooks, Log& log)
      : Module(fw), id_(id), name_(std::move(name)), hooks_(hooks), log_(&log) {}

  isa::ModuleId id() const override { return id_; }
  const char* name() const override { return name_.c_str(); }
  HookSet hooks() const override { return hooks_; }

  void on_dispatch(const DispatchInfo&, Cycle) override { record(Hook::kDispatch); }
  void on_execute(const ExecuteInfo&, Cycle) override { record(Hook::kExecute); }
  void on_commit(const CommitInfo&, Cycle) override { record(Hook::kCommit); }
  Cycle on_store_commit(const CommitInfo&, Cycle) override {
    record(Hook::kStoreCommit);
    return 0;
  }
  void on_squash(const InstrTag&, Cycle) override { record(Hook::kSquash); }
  void tick(Cycle) override { record(Hook::kTick); }

 private:
  void record(Hook hook) { log_->emplace_back(name_, hook); }

  isa::ModuleId id_;
  std::string name_;
  HookSet hooks_;
  Log* log_;
};

struct DeclaredHooksTest : ::testing::Test {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  Framework fw{memory, bus, 16};
  DeclaringModule::Log log;

  DeclaringModule* add(isa::ModuleId id, std::string name, HookSet hooks) {
    auto module = std::make_unique<DeclaringModule>(fw, id, std::move(name), hooks, log);
    DeclaringModule* raw = module.get();
    fw.add_module(std::move(module));
    raw->set_enabled(true);
    return raw;
  }

  /// One event of every kind at cycle 10, a store commit among them; the
  /// tick of cycle 11 delivers them.
  void push_every_kind() {
    fw.on_dispatch(FrameworkFixture::make_dispatch(1, 1, isa::Op::kSw), 10);
    fw.on_execute(ExecuteInfo{.tag = {.slot = 1, .seq = 1}, .eff_addr = 0x1000, .is_mem = true},
                  10);
    CommitInfo store;
    store.tag = {.slot = 1, .seq = 1};
    store.instr.op = isa::Op::kSw;
    fw.on_commit(store, 10);
    fw.on_dispatch(FrameworkFixture::make_dispatch(2, 2, isa::Op::kAdd), 10);
    fw.on_squash({.slot = 2, .seq = 2}, 10);
  }
};

TEST_F(DeclaredHooksTest, AModuleDeclaringOnlyCommitReceivesOnlyCommits) {
  add(isa::ModuleId::kCfc, "commit-only", {Hook::kCommit});
  push_every_kind();
  fw.tick(11);
  const DeclaringModule::Log expected = {{"commit-only", Hook::kCommit}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(fw.stats().dispatches_seen, 2u);  // the taps still count every event
  EXPECT_EQ(fw.stats().squashes_seen, 1u);
}

TEST_F(DeclaredHooksTest, EachHookReachesItsDeclarersInRegistrationOrder) {
  add(isa::ModuleId::kIcm, "a", {Hook::kCommit, Hook::kTick});
  add(isa::ModuleId::kCfc, "b", HookSet::all());
  add(isa::ModuleId::kDdt, "c", {Hook::kStoreCommit, Hook::kSquash, Hook::kCommit});
  push_every_kind();
  const DeclaringModule::Log synchronous = {{"b", Hook::kStoreCommit}, {"c", Hook::kStoreCommit}};
  EXPECT_EQ(log, synchronous);
  log.clear();
  fw.tick(11);
  const DeclaringModule::Log expected = {
      {"b", Hook::kDispatch}, {"b", Hook::kExecute}, {"a", Hook::kCommit},
      {"b", Hook::kCommit},   {"c", Hook::kCommit},  {"b", Hook::kDispatch},
      {"b", Hook::kSquash},   {"c", Hook::kSquash},  {"a", Hook::kTick},
      {"b", Hook::kTick}};
  EXPECT_EQ(log, expected);
}

TEST_F(DeclaredHooksTest, NoEventIsQueuedForAKindNoModuleDeclares) {
  add(isa::ModuleId::kCfc, "commit-only", {Hook::kCommit});
  fw.on_dispatch(FrameworkFixture::make_dispatch(1, 1, isa::Op::kAdd), 10);
  fw.on_execute(ExecuteInfo{.tag = {.slot = 1, .seq = 1}}, 10);
  fw.on_dispatch(FrameworkFixture::make_dispatch(2, 2, isa::Op::kAdd), 10);
  fw.on_squash({.slot = 2, .seq = 2}, 10);
  EXPECT_EQ(fw.pending_events(), 0u);
  EXPECT_TRUE(fw.ioq().entry(1).allocated);  // the IOQ still tracks the dispatch
  CommitInfo commit;
  commit.tag = {.slot = 1, .seq = 1};
  commit.instr.op = isa::Op::kAdd;
  fw.on_commit(commit, 10);
  EXPECT_EQ(fw.pending_events(), 1u);
}

TEST_F(DeclaredHooksTest, AddModuleIsRefusedWhileEventsArePending) {
  add(isa::ModuleId::kCfc, "commit-only", {Hook::kCommit});
  CommitInfo commit;
  commit.instr.op = isa::Op::kAdd;
  fw.on_commit(commit, 10);
  ASSERT_EQ(fw.pending_events(), 1u);
  EXPECT_THROW(add(isa::ModuleId::kIcm, "late", HookSet::all()), SimError);
  fw.tick(11);
  EXPECT_EQ(fw.pending_events(), 0u);
  EXPECT_NO_THROW(add(isa::ModuleId::kIcm, "in-time", HookSet::all()));
}

}  // namespace
}  // namespace rse::engine
