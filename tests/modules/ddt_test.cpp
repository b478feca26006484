// Data Dependency Tracker unit tests: the Figure 5 page-state machine, the
// dependency matrix, SavePage generation, and the PST structures.
#include "modules/ddt/ddt.hpp"

#include <gtest/gtest.h>

#include "mem/bus.hpp"
#include "mem/main_memory.hpp"
#include "rse/framework.hpp"

namespace rse::modules {
namespace {

struct DdtFixture : ::testing::Test {
  mem::MainMemory memory;
  mem::BusArbiter bus{mem::BusTiming{19, 3, 8}};
  engine::Framework fw{memory, bus, 16};
  DdtModule* ddt = nullptr;
  std::vector<std::pair<u32, ThreadId>> saves;

  void SetUp() override {
    auto module = std::make_unique<DdtModule>(fw);
    ddt = module.get();
    fw.add_module(std::move(module));
    ddt->set_enabled(true);
    ddt->set_save_page_handler([this](u32 page, ThreadId writer, Cycle) {
      saves.push_back({page, writer});
      return Cycle{100};
    });
  }

  engine::CommitInfo mem_op(ThreadId thread, isa::Op op, Addr addr, u64 seq = 1) {
    engine::CommitInfo info;
    info.tag = {.slot = 0, .seq = seq};
    info.instr.op = op;
    info.thread = thread;
    info.eff_addr = addr;
    return info;
  }

  void load(ThreadId t, Addr addr) { ddt->on_commit(mem_op(t, isa::Op::kLw, addr), 0); }
  Cycle store(ThreadId t, Addr addr) {
    return ddt->on_store_commit(mem_op(t, isa::Op::kSw, addr), 0);
  }
};

TEST_F(DdtFixture, FirstTouchTakesOwnershipWithoutSave) {
  EXPECT_EQ(store(1, 0x1000), 0u);
  EXPECT_TRUE(saves.empty());
  const auto owners = ddt->page_owners(1);
  EXPECT_EQ(owners.write_owner, 1u);
  EXPECT_EQ(owners.read_owner, 1u);
}

TEST_F(DdtFixture, OwnerRereadAndRewriteAreFree) {
  store(1, 0x1000);
  load(1, 0x1004);
  EXPECT_EQ(store(1, 0x1008), 0u);
  EXPECT_TRUE(saves.empty());
  EXPECT_EQ(ddt->stats().dependencies_logged, 0u);
}

TEST_F(DdtFixture, ForeignReadLogsDependency) {
  // Figure 5: (t,t) --(s,r)/log(t->s)--> (t,s)
  store(2, 0x1000);
  load(1, 0x1000);
  EXPECT_TRUE(ddt->depends(2, 1));   // thread 1 depends on producer 2
  EXPECT_FALSE(ddt->depends(1, 2));  // not symmetric
  EXPECT_EQ(ddt->page_owners(1).read_owner, 1u);
  EXPECT_EQ(ddt->page_owners(1).write_owner, 2u);
}

TEST_F(DdtFixture, ForeignWriteRaisesSavePage) {
  // Figure 5: a write by a non-owner triggers SavePage and transfers both
  // ownerships to the writer.
  store(1, 0x2000);
  const Cycle stall = store(2, 0x2004);
  EXPECT_EQ(stall, 100u);
  ASSERT_EQ(saves.size(), 1u);
  EXPECT_EQ(saves[0].first, 2u);       // page number
  EXPECT_EQ(saves[0].second, 2u);      // new writer
  EXPECT_EQ(ddt->page_owners(2).write_owner, 2u);
  EXPECT_EQ(ddt->page_owners(2).read_owner, 2u);
}

TEST_F(DdtFixture, DependencyCountedOncePerThreadPair) {
  // The DDM is a bit matrix: re-establishing the same producer->consumer
  // edge (even through a different page) sets no new bit.
  store(2, 0x1000);
  load(1, 0x1000);
  load(1, 0x1000);
  store(2, 0x3000);
  load(1, 0x3000);
  EXPECT_EQ(ddt->stats().dependencies_logged, 1u);
  EXPECT_TRUE(ddt->depends(2, 1));
}

TEST_F(DdtFixture, WriteAfterForeignWriteDoesNotLogDependency) {
  store(1, 0x1000);
  store(2, 0x1000);  // overwrite, no read: no dependency
  EXPECT_FALSE(ddt->depends(1, 2));
  EXPECT_EQ(saves.size(), 1u);
}

TEST_F(DdtFixture, TransitiveClosureFollowsChains) {
  // t2 -> t1 -> t0 (Figure 8 shape): killing t2 takes t1 and t0 with it.
  store(2, 0x1000);
  load(1, 0x1000);   // t1 depends on t2
  store(1, 0x2000);
  load(0, 0x2000);   // t0 depends on t1
  const auto closure = ddt->dependent_closure(2);
  EXPECT_EQ(closure, (std::vector<ThreadId>{0, 1, 2}));
  // Killing t0 instead takes only t0 (and t1 via the p3 edge is absent here).
  EXPECT_EQ(ddt->dependent_closure(0), (std::vector<ThreadId>{0}));
}

TEST_F(DdtFixture, ClosureHandlesCycles) {
  store(1, 0x1000);
  load(2, 0x1000);  // 1 -> 2
  store(2, 0x2000);
  load(1, 0x2000);  // 2 -> 1 (cycle)
  EXPECT_EQ(ddt->dependent_closure(1), (std::vector<ThreadId>{1, 2}));
  EXPECT_EQ(ddt->dependent_closure(2), (std::vector<ThreadId>{1, 2}));
}

TEST_F(DdtFixture, ForgetThreadsClearsRowsColumnsAndOwnership) {
  store(2, 0x1000);
  load(1, 0x1000);
  store(3, 0x4000);
  load(1, 0x4000);  // 3 -> 1
  ddt->forget_threads({2});
  EXPECT_FALSE(ddt->depends(2, 1));
  EXPECT_TRUE(ddt->depends(3, 1));  // unrelated edge survives
  EXPECT_EQ(ddt->page_owners(1).write_owner, kNoThread);  // page of 0x1000 forgotten
}

TEST_F(DdtFixture, PstEvictionForgetsColdPages) {
  DdtConfig config;
  config.pst_entries = 2;
  auto module = std::make_unique<DdtModule>(fw, config);
  DdtModule* small = module.get();
  small->set_enabled(true);
  small->set_save_page_handler([](u32, ThreadId, Cycle) { return Cycle{0}; });
  engine::CommitInfo info;
  info.instr.op = isa::Op::kSw;
  info.thread = 1;
  for (Addr a : {0x1000u, 0x2000u, 0x3000u}) {
    info.eff_addr = a;
    small->on_store_commit(info, 0);
  }
  EXPECT_EQ(small->stats().pst_evictions, 1u);
  EXPECT_EQ(small->page_owners(1).write_owner, kNoThread);  // evicted
  EXPECT_EQ(small->page_owners(3).write_owner, 1u);         // hot entry kept
}

TEST_F(DdtFixture, DisabledModuleTracksNothing) {
  ddt->set_enabled(false);
  // The framework never routes events to disabled modules; even direct calls
  // after re-enable start from a clean slate because disable resets state.
  store(1, 0x1000);
  ddt->set_enabled(true);
  EXPECT_EQ(ddt->page_owners(1).write_owner, 1u);  // direct call did record
}

TEST_F(DdtFixture, ResetClearsMatrixAndPst) {
  store(2, 0x1000);
  load(1, 0x1000);
  ddt->reset();
  EXPECT_FALSE(ddt->depends(2, 1));
  EXPECT_EQ(ddt->page_owners(1).write_owner, kNoThread);
}

TEST_F(DdtFixture, FootprintViolationRaisedOnlyAtCheckedSites) {
  DdtFootprint footprint;
  footprint.checked_pcs = {0x400010};
  footprint.pages = {mem::page_of(0x1000)};
  footprint.store_pages = {mem::page_of(0x1000)};
  ddt->set_footprint_table(footprint);

  std::vector<std::pair<Addr, u32>> violations;
  ddt->set_footprint_violation_handler(
      [&](Addr pc, u32 page, ThreadId, bool, Cycle) { violations.push_back({pc, page}); });

  auto store_at = [&](Addr pc, Addr addr) {
    engine::CommitInfo info = mem_op(1, isa::Op::kSw, addr);
    info.pc = pc;
    ddt->on_store_commit(info, 0);
  };
  store_at(0x400010, 0x1004);  // checked site, predicted page: clean
  store_at(0x400010, 0x5000);  // checked site, outside the footprint
  store_at(0x400020, 0x9000);  // unresolved site: never checked
  EXPECT_EQ(ddt->stats().footprint_checks, 2u);
  EXPECT_EQ(ddt->stats().footprint_violations, 1u);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].first, 0x400010u);
  EXPECT_EQ(violations[0].second, mem::page_of(0x5000));
}

TEST_F(DdtFixture, FootprintPrereservesPstEntriesAndCountsFirstTouch) {
  DdtFootprint footprint;
  footprint.checked_pcs = {0x400010};
  footprint.pages = {mem::page_of(0x1000), mem::page_of(0x2000)};
  footprint.store_pages = {mem::page_of(0x1000), mem::page_of(0x2000)};
  ddt->set_footprint_table(footprint);
  EXPECT_EQ(ddt->stats().pst_prereserved, 2u);
  EXPECT_EQ(ddt->tracked_pages(),
            (std::vector<u32>{mem::page_of(0x1000), mem::page_of(0x2000)}));

  store(1, 0x1000);
  store(1, 0x1004);  // same page: only the first touch is a prereserve hit
  EXPECT_EQ(ddt->stats().prereserve_hits, 1u);
  EXPECT_TRUE(saves.empty()) << "a pre-reserved entry must not raise SavePage";
}

TEST_F(DdtFixture, AddFootprintPagesWhitelistsRuntimePages) {
  DdtFootprint footprint;
  footprint.checked_pcs = {0x400010};
  footprint.pages = {mem::page_of(0x1000)};
  ddt->set_footprint_table(footprint);
  ddt->add_footprint_pages({mem::page_of(0x7000)});

  engine::CommitInfo info = mem_op(1, isa::Op::kSw, 0x7004);
  info.pc = 0x400010;
  ddt->on_store_commit(info, 0);
  EXPECT_EQ(ddt->stats().footprint_violations, 0u)
      << "a page whitelisted at run time must not violate";
}

TEST_F(DdtFixture, ResetClearsStatsButKeepsFootprintConfig) {
  DdtFootprint footprint;
  footprint.checked_pcs = {0x400010};
  footprint.pages = {mem::page_of(0x1000)};
  footprint.store_pages = {mem::page_of(0x1000)};
  ddt->set_footprint_table(footprint);
  engine::CommitInfo info = mem_op(1, isa::Op::kSw, 0x5000);
  info.pc = 0x400010;
  ddt->on_store_commit(info, 0);
  EXPECT_EQ(ddt->stats().footprint_violations, 1u);

  ddt->reset();
  EXPECT_EQ(ddt->stats().footprint_violations, 0u);
  EXPECT_TRUE(ddt->has_footprint()) << "the footprint is load-time config: survives reset";
  EXPECT_EQ(ddt->stats().pst_prereserved, 1u)
      << "reset re-applies pre-reservation to the fresh PST";
}

TEST_F(DdtFixture, ReplacingFootprintTableRebuildsPrereservation) {
  // Regression: installing a second footprint table (a new program load)
  // merged the new pre-reservation into the previous table's speculative
  // PST entries instead of replacing them — the old program's predicted
  // pages stayed resident, consuming PST capacity and counting as tracked.
  DdtFootprint first;
  first.checked_pcs = {0x400010};
  first.pages = {mem::page_of(0x1000), mem::page_of(0x2000)};
  first.store_pages = {mem::page_of(0x1000), mem::page_of(0x2000)};
  ddt->set_footprint_table(first);
  EXPECT_EQ(ddt->tracked_pages(),
            (std::vector<u32>{mem::page_of(0x1000), mem::page_of(0x2000)}));

  // One prediction is confirmed by a real store before the replacement: the
  // entry holds live dependence state and must survive.
  store(1, 0x1000);

  DdtFootprint second;
  second.checked_pcs = {0x400020};
  second.pages = {mem::page_of(0x3000)};
  second.store_pages = {mem::page_of(0x3000)};
  ddt->set_footprint_table(second);

  // The unconfirmed 0x2000 prediction is gone; the confirmed 0x1000 entry
  // and the new table's 0x3000 pre-reservation remain.
  EXPECT_EQ(ddt->tracked_pages(),
            (std::vector<u32>{mem::page_of(0x1000), mem::page_of(0x3000)}));
  EXPECT_EQ(ddt->page_owners(mem::page_of(0x1000)).write_owner, 1u)
      << "a store-confirmed entry is live dynamic state and survives";

  // The old table's page set must no longer whitelist accesses.
  engine::CommitInfo info = mem_op(1, isa::Op::kSw, 0x2000);
  info.pc = 0x400020;
  ddt->on_store_commit(info, 0);
  EXPECT_EQ(ddt->stats().footprint_violations, 1u)
      << "the replaced table's pages must not leak into the new whitelist";
}

TEST_F(DdtFixture, ReenableClearsEvictionCount) {
  // Regression: pst_evictions survived a disable/re-enable cycle while the
  // PST itself was cleared, so stats disagreed with the table they describe.
  // Module reset semantics are uniform now: dynamic state AND stats go back
  // to zero together.
  DdtConfig config;
  config.pst_entries = 2;
  auto module = std::make_unique<DdtModule>(fw, config);
  DdtModule* small = module.get();
  small->set_enabled(true);
  engine::CommitInfo info;
  info.instr.op = isa::Op::kSw;
  info.thread = 1;
  for (Addr a : {0x1000u, 0x2000u, 0x3000u}) {
    info.eff_addr = a;
    small->on_store_commit(info, 0);
  }
  ASSERT_EQ(small->stats().pst_evictions, 1u);

  small->set_enabled(false);  // disable resets the module
  small->set_enabled(true);
  EXPECT_EQ(small->stats().pst_evictions, 0u);
  EXPECT_EQ(small->stats().tracked_stores, 0u);
  EXPECT_TRUE(small->tracked_pages().empty());
}

TEST_F(DdtFixture, QueryMatrixWritesDdmToGuestMemory) {
  store(2, 0x1000);
  load(1, 0x1000);  // DDM row 2 has bit 1 set
  engine::DispatchInfo chk;
  chk.tag = {.slot = 3, .seq = 9};
  chk.instr.op = isa::Op::kChk;
  chk.instr.chk_module = isa::ModuleId::kDdt;
  chk.instr.chk_blocking = true;
  chk.instr.chk_op = kDdtOpQueryMatrix;
  chk.operands[0] = 0x9000;  // destination buffer
  chk.operand_count = 1;
  fw.ioq().allocate(chk.tag, true, isa::ModuleId::kDdt, 0);
  ddt->on_dispatch(chk, 0);
  for (Cycle c = 1; c < 2000 && !fw.check_bits(3).check_valid; ++c) fw.tick(c);
  EXPECT_TRUE(fw.check_bits(3).check_valid);
  const u64 row2 = memory.read_u32(0x9000 + 2 * 8) |
                   (static_cast<u64>(memory.read_u32(0x9000 + 2 * 8 + 4)) << 32);
  EXPECT_EQ(row2, u64{1} << 1);
}

}  // namespace
}  // namespace rse::modules
