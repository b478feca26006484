// Detect/miss golden matrix for the security attack corpus
// (src/workloads/attacks.cpp, docs/security.md): every scenario is run
// fault-free under each protection configuration and the *measured* outcome
// is pinned as a fixture — which module fires, what the guest still managed
// to print before containment (the latency class), and which scenarios
// escape.  A regression in any module's detection surface moves a cell and
// fails here.
//
// The DME rows use rse/dme.hpp directly: two recorded variants under
// distinct MLR seeds, compared canonically.  attack-heap is the
// DME-alone scenario — every per-module row below is a miss, only the
// cross-variant trace diff sees the wild store move.
#include <gtest/gtest.h>

#include <string>

#include "../support/sim_runner.hpp"
#include "campaign/runner.hpp"
#include "campaign/workload.hpp"
#include "isa/assembler.hpp"
#include "modules/cfc/cfc.hpp"
#include "modules/ddt/ddt.hpp"
#include "modules/icm/icm.hpp"
#include "rse/dme.hpp"
#include "workloads/workloads.hpp"

namespace rse::campaign {
namespace {

// One protection configuration — a column of the matrix.  Every run is
// instrumented (workloads::instrument_checks), so the ICM is active in all
// columns; the flags layer the other modules on top, mirroring rse_run.
struct Column {
  const char* name;
  bool cfc = false;         // range CFC (text-segment landing check)
  bool static_cfc = false;  // CFC with the analyzer's successor table
  bool static_ddt = false;  // DDT with the static page footprint
  bool randomize = false;   // MLR layout randomization
};

constexpr Column kUnprotected{"unprotected"};
constexpr Column kRangeCfc{"range-cfc", /*cfc=*/true};
constexpr Column kStaticCfc{"static-cfc", false, /*static_cfc=*/true};
constexpr Column kStaticDdt{"static-ddt", false, false, /*static_ddt=*/true};
constexpr Column kMlr{"mlr", false, false, false, /*randomize=*/true};

// What one fault-free run measured — a cell of the matrix.
struct Cell {
  std::string output;
  int exit_code = 0;
  bool finished = false;
  u64 crashes = 0;
  u64 cfc_violations = 0;
  u64 cfc_static_checks = 0;
  u64 cfc_range_checks = 0;
  u64 ddt_footprint_violations = 0;
  u64 icm_mismatches = 0;
};

Cell run_cell(const std::string& source, const Column& column, u64 mlr_seed = 0x4D4C52) {
  os::MachineConfig machine_config;
  machine_config.framework_present = true;
  machine_config.mlr.seed = mlr_seed;
  os::OsConfig os_config;
  os_config.static_cfc = column.static_cfc;
  os_config.static_ddt = column.static_ddt;
  os_config.randomize_layout = column.randomize;
  testing::SimRunner runner(machine_config, os_config);
  runner.load_source(workloads::instrument_checks(source));
  if (column.cfc || column.static_cfc) runner.os().enable_module(isa::ModuleId::kCfc);
  if (column.static_ddt) runner.os().enable_module(isa::ModuleId::kDdt);
  runner.run();

  Cell cell;
  cell.output = runner.os().output();
  cell.exit_code = runner.os().exit_code();
  cell.finished = runner.os().finished();
  cell.crashes = runner.os().stats().crashes;
  if (const auto* cfc = runner.machine().cfc()) {
    cell.cfc_violations = cfc->stats().violations;
    cell.cfc_static_checks = cfc->stats().indirect_static_checks;
    cell.cfc_range_checks = cfc->stats().indirect_range_checks;
  }
  if (const auto* ddt = runner.machine().ddt()) {
    cell.ddt_footprint_violations = ddt->stats().footprint_violations;
  }
  if (const auto* icm = runner.machine().icm()) {
    cell.icm_mismatches = icm->stats().mismatches;
  }
  return cell;
}

/// A silent cell: the scenario ran to completion with no module evidence.
void expect_silent(const Cell& cell, const std::string& output, int exit_code,
                   const std::string& where) {
  EXPECT_TRUE(cell.finished) << where;
  EXPECT_EQ(cell.output, output) << where;
  EXPECT_EQ(cell.exit_code, exit_code) << where;
  EXPECT_EQ(cell.crashes, 0u) << where;
  EXPECT_EQ(cell.cfc_violations, 0u) << where;
  EXPECT_EQ(cell.ddt_footprint_violations, 0u) << where;
  EXPECT_EQ(cell.icm_mismatches, 0u) << where;
}

// ---- stack smash: return-address overwrite --------------------------------
//
// Matrix row: hijack succeeds silently ('!' / exit 7) in every column except
// static CFC, whose successor table knows worker's only legal return site.
// Latency class: the violation fires at the corrupted transfer, but
// containment is post-landing — the privileged marker still prints before
// the kill, so static CFC *detects* the hijack without preventing it.

TEST(AttackMatrix, StackSmashEscapesEverythingButStaticCfc) {
  const std::string atk = workloads::stack_smash_source({});
  for (const Column& column : {kUnprotected, kStaticDdt, kMlr}) {
    expect_silent(run_cell(atk, column), "!", 7, std::string("attack-stack/") + column.name);
  }
  // Range CFC is consulted and fooled: the hijacked landing is still text.
  const Cell range = run_cell(atk, kRangeCfc);
  EXPECT_EQ(range.output, "!");
  EXPECT_EQ(range.exit_code, 7);
  EXPECT_EQ(range.cfc_violations, 0u) << "range CFC must accept a text landing";
  EXPECT_GT(range.cfc_range_checks, 0u) << "the hijacked return was never range-checked";
}

TEST(AttackMatrix, StackSmashDetectedByStaticCfc) {
  const Cell cell = run_cell(workloads::stack_smash_source({}), kStaticCfc);
  EXPECT_GE(cell.cfc_violations, 1u) << "successor table missed the hijacked return";
  EXPECT_GT(cell.cfc_static_checks, 0u);
  EXPECT_GE(cell.crashes, 1u) << "detection must contain (kill) the hijacked thread";
  // Latency class pin: detection is at-transfer but containment is
  // post-landing — the privileged marker already printed.
  EXPECT_EQ(cell.output, "!");
}

TEST(AttackMatrix, BenignStackTwinIsCleanEverywhere) {
  const std::string ben = workloads::stack_smash_source({/*payload_offset=*/8});
  for (const Column& column : {kUnprotected, kRangeCfc, kStaticCfc, kStaticDdt, kMlr}) {
    expect_silent(run_cell(ben, column), "n", 0, std::string("benign-stack/") + column.name);
  }
}

// ---- GOT overwrite: function-pointer table clobber ------------------------
//
// Matrix row: MLR's own target class.  The wild store lands on the table's
// *default-layout* address; every module column misses (the dispatch lands
// on `privileged`, which is address-taken, so even the static successor
// table admits it — coarse CFI's documented blind spot).  Under MLR the
// table moves and the attack writes into unused heap: the dispatch runs the
// intact entry ('bn' / exit 0).  Latency class: preemptive — MLR foils the
// hijack before any corrupted transfer exists.

TEST(AttackMatrix, GotOverwriteHijacksEveryNonRandomizedColumn) {
  const std::string atk = workloads::got_overwrite_source({});
  for (const Column& column : {kUnprotected, kRangeCfc, kStaticDdt}) {
    expect_silent(run_cell(atk, column), "!", 7, std::string("attack-got/") + column.name);
  }
  // Static CFC consults the table and still admits the landing: privileged
  // is address-taken (its address is the payload in .data), so coarse CFI
  // cannot tell the hijack from a legal indirect call.
  const Cell cfc = run_cell(atk, kStaticCfc);
  EXPECT_EQ(cfc.output, "!");
  EXPECT_EQ(cfc.exit_code, 7);
  EXPECT_EQ(cfc.cfc_violations, 0u);
  EXPECT_GT(cfc.cfc_static_checks, 0u) << "the hijacked dispatch was never table-checked";
}

TEST(AttackMatrix, GotOverwriteFoiledByMlr) {
  for (const u64 seed : {u64{0x4D4C52}, u64{7}, u64{1234}}) {
    const Cell cell = run_cell(workloads::got_overwrite_source({}), kMlr, seed);
    EXPECT_TRUE(cell.finished) << "seed " << seed;
    EXPECT_EQ(cell.output, "bn") << "seed " << seed << ": hijack not foiled";
    EXPECT_EQ(cell.exit_code, 0) << "seed " << seed;
    EXPECT_EQ(cell.crashes, 0u) << "seed " << seed;
  }
}

TEST(AttackMatrix, BenignGotTwinRepointsLegallyEverywhere) {
  // The twin re-points its own table entry through the allocation pointer —
  // reaching `privileged` IS its correct behavior, under MLR too (no false
  // foil: the legal write tracks the randomized base).
  const std::string ben = workloads::got_overwrite_source({/*wild=*/false});
  for (const Column& column : {kUnprotected, kRangeCfc, kStaticCfc, kStaticDdt, kMlr}) {
    const Cell cell = run_cell(ben, column);
    EXPECT_TRUE(cell.finished) << column.name;
    EXPECT_EQ(cell.output, "!") << column.name;
    EXPECT_EQ(cell.exit_code, 7) << column.name;
    EXPECT_EQ(cell.cfc_violations, 0u) << column.name;
    EXPECT_EQ(cell.crashes, 0u) << column.name;
  }
}

// ---- heap spray: wild-pointer corruption ----------------------------------
//
// Matrix row: every module column is a silent miss — the poison lands in
// the guest's own arena, so there is no illegal transfer, no footprint
// escape at a resolved site, no patched text.  Only the checksum differs
// between the attack and its twin.  The detect cell lives in the DME rows
// below: under small MLR entropy the wild store hits a seed-dependent arena
// word, and the cross-variant trace diff flags the first divergent load.

TEST(AttackMatrix, HeapSprayEscapesEveryModuleColumn) {
  const std::string atk = workloads::heap_spray_source({});
  const std::string ben = workloads::heap_spray_source({/*wild=*/false});
  for (const Column& column : {kUnprotected, kRangeCfc, kStaticCfc, kStaticDdt}) {
    expect_silent(run_cell(atk, column), "25774553", 0,
                  std::string("attack-heap/") + column.name);
    expect_silent(run_cell(ben, column), "25778585", 0,
                  std::string("benign-heap/") + column.name);
  }
}

// ---- CHK bypass: enter one instruction past the ICM CHECK -----------------
//
// Matrix row: the pinned ICM miss.  The guest patches a *checked* text word
// but enters past the CHECK, so the comparison never runs — the hostile
// patch executes silently ('666').  The control cell goes *through* the
// CHECK: the ICM compares the patched word against its load-time copy and
// kills the thread before the gate's print (empty output — detection ahead
// of any side effect).

TEST(AttackMatrix, ChkBypassEscapesEveryColumn) {
  const std::string atk = workloads::chk_bypass_source({});
  for (const Column& column : {kUnprotected, kRangeCfc, kStaticCfc, kStaticDdt, kMlr}) {
    const Cell cell = run_cell(atk, column);
    const std::string where = std::string("attack-chk/") + column.name;
    EXPECT_TRUE(cell.finished) << where;
    EXPECT_EQ(cell.output, "666") << where;
    EXPECT_EQ(cell.exit_code, 0) << where;
    EXPECT_EQ(cell.crashes, 0u) << where;
    EXPECT_EQ(cell.cfc_violations, 0u) << where;
    EXPECT_EQ(cell.ddt_footprint_violations, 0u) << where;
    // Stat-only evidence, never containment: sequential fetch runs onto the
    // skipped gate CHECK down a wrong path, so the ICM compares the patched
    // word and logs a mismatch — but the CHECK is squashed before commit,
    // its IOQ slot is freed, and no check error is ever raised.  The bypass
    // is architecturally a silent miss (the pinned ICM escape).
    EXPECT_EQ(cell.icm_mismatches, 1u) << where;
  }
}

TEST(AttackMatrix, ChkThroughGateDetectedByIcm) {
  workloads::ChkBypassParams through;
  through.bypass = false;  // enter via the CHECK, hostile patch in place
  const Cell cell = run_cell(workloads::chk_bypass_source(through), kUnprotected);
  EXPECT_GE(cell.icm_mismatches, 1u) << "ICM never compared the patched gate";
  EXPECT_GE(cell.crashes, 1u);
  EXPECT_EQ(cell.output, "") << "containment must precede the gate's print";
}

TEST(AttackMatrix, BenignChkTwinIsCleanEverywhere) {
  workloads::ChkBypassParams benign;
  benign.bypass = false;
  benign.hostile_patch = false;  // bit-identical patch through the CHECK
  const std::string ben = workloads::chk_bypass_source(benign);
  for (const Column& column : {kUnprotected, kRangeCfc, kStaticCfc, kStaticDdt, kMlr}) {
    expect_silent(run_cell(ben, column), "7", 0, std::string("benign-chk/") + column.name);
  }
}

// ---- DME rows -------------------------------------------------------------

/// Where fault-free variant A (seed_a) first diverges from variant B
/// (seed_b) under the campaign's checker; kConvergent when it never does.
constexpr u64 kConvergent = ~u64{0};

u64 dme_row(const char* workload, u64 seed_a, u64 seed_b) {
  const WorkloadSetup setup = make_workload(workload);
  const isa::Program program = isa::assemble(setup.source);
  WorkloadSetup setup_b = setup;
  dme::make_variant(setup_b.machine, setup_b.os, seed_b);
  BootedGuest variant_b(setup_b, program, setup_b.os.run_limit);
  const dme::CanonicalTrace reference = dme::record_trace(variant_b.guest, program);
  WorkloadSetup setup_a = setup;
  dme::make_variant(setup_a.machine, setup_a.os, seed_a);
  BootedGuest variant_a(setup_a, program, setup_a.os.run_limit);
  const dme::TraceChecker checker = dme::check_trace(variant_a.guest, program, reference);
  EXPECT_TRUE(variant_a.guest.finished()) << workload;
  EXPECT_TRUE(variant_b.guest.finished()) << workload;
  return checker.first_divergence();
}

TEST(AttackMatrix, DmeAloneDetectsTheHeapSpray) {
  // The DME-alone cell: under the workload's entropy_pages = 4 the wild
  // store lands on a different arena word per seed, so the first divergent
  // canonical record is the checksum loop's load of the poisoned word.
  EXPECT_NE(dme_row("attack-heap", 1, 2), kConvergent)
      << "attack-heap must diverge across MLR variants (the DME-alone detect)";
  // The twin's poison is arena-relative: identical canonical traces.
  const u64 benign = dme_row("benign-heap", 1, 2);
  EXPECT_EQ(benign, kConvergent) << "benign-heap falsely diverged at record " << benign;
}

TEST(AttackMatrix, LayoutIndependentScenariosStayConvergent) {
  // Scenarios whose behavior does not depend on the randomized layout are
  // DME misses — pinned so a canonicalization regression (spurious
  // divergence on stack/heap traffic) is caught immediately.
  for (const char* workload : {"attack-stack", "benign-stack", "attack-chk", "benign-chk"}) {
    const u64 divergence = dme_row(workload, 1, 2);
    EXPECT_EQ(divergence, kConvergent) << workload << " falsely diverged at record " << divergence;
  }
}

TEST(AttackMatrix, GotScenariosConvergeUnderDme) {
  // Both variants randomize, so the wild store misses the table in both and
  // the dispatch runs the intact entry — same canonical behavior, DME miss
  // (MLR already foiled the attack preemptively).
  EXPECT_EQ(dme_row("attack-got", 1, 2), kConvergent);
  EXPECT_EQ(dme_row("benign-got", 1, 2), kConvergent);
}

// ---- campaign integration -------------------------------------------------

TEST(AttackMatrix, AllCorpusWorkloadsRunUnderDmeCampaigns) {
  CampaignRunner runner;
  for (const char* workload : {"attack-stack", "benign-stack", "attack-got", "benign-got",
                               "attack-heap", "benign-heap", "attack-chk", "benign-chk"}) {
    CampaignSpec spec;
    spec.workload = workload;
    spec.runs = 4;
    spec.seed = 7;
    spec.jobs = 2;
    spec.dme = true;
    const CampaignReport report = runner.run(spec);
    u32 total = 0;
    for (const u32 count : report.by_outcome) total += count;
    EXPECT_EQ(total, spec.runs) << workload << ": campaign lost runs under --dme";
  }
}

}  // namespace
}  // namespace rse::campaign
