// Diagnostics pass (analysis/analyzer.hpp): each DiagCode has a fixture that
// must trip it at the documented severity, plus negative cases pinning the
// checks to zero false positives on well-formed programs.
#include "analysis/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "isa/assembler.hpp"
#include "workloads/workloads.hpp"

namespace rse::analysis {
namespace {

u32 count_code(const AnalysisResult& result, DiagCode code) {
  return static_cast<u32>(std::count_if(
      result.diagnostics.begin(), result.diagnostics.end(),
      [code](const Diagnostic& d) { return d.code == code; }));
}

const Diagnostic* find_code(const AnalysisResult& result, DiagCode code) {
  for (const Diagnostic& d : result.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

TEST(DiagnosticsTest, JumpOutsideTextIsError) {
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  j 0x00500000
)"));
  const Diagnostic* d = find_code(result, DiagCode::kBranchTargetOutsideText);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_TRUE(result.has_errors());
  EXPECT_EQ(d->symbol, "main");
}

TEST(DiagnosticsTest, BitFlippedBranchTargetIsError) {
  // The campaign's kInstructionWord fault class: corrupt the offset field of
  // an in-range branch so it aims far outside the text segment.  The lint
  // must catch the corrupted image even though the original assembled clean.
  isa::Program program = isa::assemble(R"(
.text
main:
  li t0, 8
loop:
  addi t0, t0, -1
  bne t0, r0, loop
  li a0, 0
  li v0, 1
  syscall
)");
  ASSERT_FALSE(analyze(program).has_errors());

  for (Word& word : program.text) {
    if (isa::decode(word).op == isa::Op::kBne) {
      word ^= 0x2000;  // flip offset bit 13: the target lands ~32 KiB away
      break;
    }
  }
  const AnalysisResult corrupted = analyze(program);
  const Diagnostic* d = find_code(corrupted, DiagCode::kBranchTargetOutsideText);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(DiagnosticsTest, FallOffTextEndIsError) {
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  addi t0, t0, 1
)"));
  const Diagnostic* d = find_code(result, DiagCode::kFallOffTextEnd);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(DiagnosticsTest, InvalidEncodingSeverityFollowsReachability) {
  isa::Program program = isa::assemble(R"(
.text
main:
  j end
dead:
  addi t0, t0, 1
end:
  li a0, 0
  li v0, 1
  syscall
)");
  // Clobber the unreachable instruction with a word no decoder accepts.
  const Addr dead = program.symbol("dead");
  program.text[(dead - program.text_base) / 4] = 0xFFFF'FFFFu;
  ASSERT_EQ(isa::decode(0xFFFF'FFFFu).op, isa::Op::kInvalid);

  const AnalysisResult result = analyze(program);
  const Diagnostic* d = find_code(result, DiagCode::kInvalidEncoding);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);  // unreachable: latent, not fatal
  EXPECT_EQ(d->addr, dead);

  // The same garbage on the reachable path is an error.
  program.text[(program.symbol("end") - program.text_base) / 4] = 0xFFFF'FFFFu;
  const AnalysisResult reachable = analyze(program);
  bool saw_error = false;
  for (const Diagnostic& diag : reachable.diagnostics) {
    if (diag.code == DiagCode::kInvalidEncoding && diag.severity == Severity::kError) {
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
}

TEST(DiagnosticsTest, StoreAimedAtTextIsError) {
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  la t0, main
  sw t1, 0(t0)
  li a0, 0
  li v0, 1
  syscall
)"));
  const Diagnostic* d = find_code(result, DiagCode::kStoreToText);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(DiagnosticsTest, StoreToDataIsNotFlagged) {
  const AnalysisResult result = analyze(isa::assemble(R"(
.data
buffer:
  .space 16
.text
main:
  la t0, buffer
  sw t1, 0(t0)
  li a0, 0
  li v0, 1
  syscall
)"));
  EXPECT_EQ(count_code(result, DiagCode::kStoreToText), 0u);
}

TEST(DiagnosticsTest, StoreToTextResolvedAcrossBlocks) {
  // The text address is loaded one block before the store: the data-flow
  // footprint carries it across the branch.
  const isa::Program program = isa::assemble(R"(
.text
main:
  la t0, main
  beq t1, zero, store
store:
  sw t1, 8(t0)
  li a0, 0
  li v0, 1
  syscall
)");
  const AnalysisResult result = analyze(program);
  const Diagnostic* d = find_code(result, DiagCode::kStoreToText);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->addr, program.symbol("store"));
  EXPECT_EQ(d->message,
            "sw r9, 8(r8): resolved store address 0x00400008 lies inside the text segment");
}

TEST(DiagnosticsTest, StoreToTextPrintsAResolvedRange) {
  // t0 = main + [0, 12]: an over-approximate site whose range reaches text.
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  la t0, main
  andi t2, t1, 12
  add t0, t0, t2
  sw t1, 0(t0)
  li a0, 0
  li v0, 1
  syscall
)"));
  const Diagnostic* d = find_code(result, DiagCode::kStoreToText);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->message,
            "sw r9, 0(r8): resolved store range [0x00400000, 0x0040000f] reaches the text "
            "segment");
}

TEST(DiagnosticsTest, StoreToTextFollowsTheFootprintsLiveness) {
  // The store sits after an exit syscall.  At context depth 1 or more the
  // footprint proves that edge infeasible, so the store is dead and not
  // reported; at depth 0 the edge stays and so does the error.
  const isa::Program program = isa::assemble(R"(
.text
main:
  li a0, 0
  li v0, 1
  syscall
  la t0, main
  sw t1, 0(t0)
  li v0, 1
  syscall
)");
  EXPECT_EQ(count_code(analyze(program), DiagCode::kStoreToText), 0u);
  AnalysisOptions depth0;
  depth0.context_depth = 0;
  EXPECT_EQ(count_code(analyze(program, depth0), DiagCode::kStoreToText), 1u);
}

TEST(DiagnosticsTest, ChkUnknownModuleIsError) {
  // The encoder accepts module numbers 0..7 but only 0..5 name a module: a
  // CHK addressed to 6 or 7 is dispatched nowhere.
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  chk 6, 0, nblk, r0, 0
  li a0, 0
  li v0, 1
  syscall
)"));
  const Diagnostic* d = find_code(result, DiagCode::kChkUnknownModule);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_TRUE(result.has_errors());
}

TEST(DiagnosticsTest, ChkEnableOfMissingModuleIsError) {
  // frame op1 = enable, imm12 low bits select the module: 6 does not exist,
  // so the enable silently does nothing at runtime.
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  chk frame, 1, nblk, r0, 6
  li a0, 0
  li v0, 1
  syscall
)"));
  const Diagnostic* d = find_code(result, DiagCode::kChkBadConfig);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
}

TEST(DiagnosticsTest, WellFormedEnableIsClean) {
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  chk frame, 1, nblk, r0, 5
  li a0, 0
  li v0, 1
  syscall
)"));
  EXPECT_FALSE(result.has_errors());
  EXPECT_EQ(count_code(result, DiagCode::kChkBadConfig), 0u);
}

TEST(DiagnosticsTest, UndecodedChkOpIsWarning) {
  // MLR decodes ops 3..12; op 20 falls through the module's dispatch.
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  chk mlr, 20, nblk, r0, 0
  li a0, 0
  li v0, 1
  syscall
)"));
  const Diagnostic* d = find_code(result, DiagCode::kChkUnknownOp);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(result.has_errors());
}

TEST(DiagnosticsTest, IcmChkAtEndOfTextChecksNothing) {
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  li a0, 0
  li v0, 1
  syscall
  chk icm, 0, blk, r0, 0
)"));
  EXPECT_GE(count_code(result, DiagCode::kChkChecksNothing), 1u);
}

TEST(DiagnosticsTest, UnreachableBlockIsWarning) {
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  j end
dead:
  addi t0, t0, 1
end:
  li a0, 0
  li v0, 1
  syscall
)"));
  const Diagnostic* d = find_code(result, DiagCode::kUnreachableBlock);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(result.has_errors());
}

TEST(DiagnosticsTest, ProtectedRegionCoverageRequiresIcmChk) {
  const char* source = R"(
.text
main:
  li t0, 3
loop:
  addi t0, t0, -1
  bne t0, r0, loop
  li a0, 0
  li v0, 1
  syscall
)";
  const isa::Program bare = isa::assemble(source);
  AnalysisOptions options;
  options.protected_regions.push_back({"text", bare.text_base, bare.text_end()});
  const AnalysisResult uncovered = analyze(bare, options);
  EXPECT_GE(count_code(uncovered, DiagCode::kMissingChkCoverage), 1u);

  // After Table 4 instrumentation every control instruction has a preceding
  // ICM CHECK, so the same contract holds.
  const isa::Program covered_prog = isa::assemble(workloads::instrument_checks(source));
  AnalysisOptions covered_options;
  covered_options.protected_regions.push_back(
      {"text", covered_prog.text_base, covered_prog.text_end()});
  const AnalysisResult covered = analyze(covered_prog, covered_options);
  EXPECT_EQ(count_code(covered, DiagCode::kMissingChkCoverage), 0u);
}

TEST(DiagnosticsTest, DiagnosticsAreSortedAndSymbolized) {
  const AnalysisResult result = analyze(isa::assemble(R"(
.text
main:
  chk 6, 0, nblk, r0, 0
  chk 7, 0, nblk, r0, 0
  li a0, 0
  li v0, 1
  syscall
)"));
  ASSERT_GE(result.diagnostics.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      result.diagnostics.begin(), result.diagnostics.end(),
      [](const Diagnostic& a, const Diagnostic& b) { return a.addr < b.addr; }));
  EXPECT_EQ(result.diagnostics[0].symbol, "main");
  EXPECT_EQ(result.diagnostics[1].symbol, "main+0x4");
  const std::string line = format_diagnostic(result.diagnostics[0]);
  EXPECT_NE(line.find("error[chk-unknown-module]"), std::string::npos);
  EXPECT_NE(line.find("(main)"), std::string::npos);
}

TEST(DiagnosticsTest, JsonReportCarriesCountsAndCodes) {
  const isa::Program program = isa::assemble(R"(
.text
main:
  chk 6, 0, nblk, r0, 0
  li a0, 0
  li v0, 1
  syscall
)");
  const AnalysisResult result = analyze(program);
  const std::string json = to_json(program, result);
  EXPECT_NE(json.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(json.find("chk-unknown-module"), std::string::npos);
}

}  // namespace
}  // namespace rse::analysis
