// Static diagnostics over a recovered CFG (the lint behind rse_lint and the
// loader's optional pre-execution analysis).  Every finding is a
// severity-tagged Diagnostic with a symbolized address; `analyze()` bundles
// the CFG, the findings, and the CFC successor-table handoff in one result.
#pragma once

#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/footprint.hpp"
#include "isa/program.hpp"

namespace rse::analysis {

enum class Severity : u8 {
  kNote = 0,
  kWarning = 1,
  kError = 2,
};
const char* to_string(Severity severity);

/// Diagnostic catalogue (docs/analysis.md lists the rule behind each code).
enum class DiagCode : u8 {
  kBranchTargetOutsideText,  // error: direct branch/jump/call leaves text
  kFallOffTextEnd,           // error: execution can run past text_end()
  kInvalidEncoding,          // error when reachable, warning otherwise
  kStoreToText,              // error: resolved footprint store site whose
                             //        range reaches the text segment
  kChkUnknownModule,         // error: CHK module# has no module behind it
  kChkBadConfig,             // error: malformed imm12 (frame enable/disable of
                             //        a nonexistent module)
  kChkUnknownOp,             // warning: chk_op the addressed module ignores
  kChkChecksNothing,         // warning: ICM CHK not followed by a checkable
                             //          instruction (end of text / another CHK)
  kUnreachableBlock,         // warning: no path from any root reaches the block
  kMissingChkCoverage,       // warning: control instruction in a declared
                             //          protected region without an ICM CHK
  kStoreOutsideFootprint,    // error: resolved store outside every mapped
                             //        segment (wild pointer / bad frame math)
  kUnresolvedAddress,        // warning: store whose address the data-flow
                             //          pass cannot bound (excluded from the
                             //          DDT footprint check)
};
const char* to_string(DiagCode code);

struct Diagnostic {
  Severity severity = Severity::kWarning;
  DiagCode code = DiagCode::kUnreachableBlock;
  Addr addr = 0;
  std::string symbol;   // nearest preceding text symbol + offset, or empty
  std::string message;  // human-readable detail (addresses pre-symbolized)
};

/// A text region the workload declares as requiring ICM CHECK coverage on
/// every control instruction (the Table 4 instrumentation contract).
struct ProtectedRegion {
  std::string name;
  Addr lo = 0;
  Addr hi = 0;  // exclusive
};

struct AnalysisOptions {
  std::vector<ProtectedRegion> protected_regions;
  /// Resolve non-return indirect jumps to the address-taken set (coarse
  /// CFI).  Off: such blocks always fall back to the CFC range check.
  bool resolve_indirect_address_taken = true;
  /// Compute parametric per-function summaries bottom-up over the call
  /// graph and use them to refine call fall-through states (clobber masks,
  /// return-value ranges) instead of the flat full-caller-saved-clobber
  /// model.  Off = that flat call model, bit-for-bit (`--flat-footprint` on
  /// the tools, kept reachable for differential measurement).
  bool interprocedural_footprint = true;
  /// Context-sensitive cloning depth for the program-wide footprint pass
  /// (requires `interprocedural_footprint`; ignored in flat mode).  A
  /// direct call whose argument registers `$a0`-`$a3` carry a non-Unknown
  /// abstract tuple enters a per-(callee, argument-tuple) clone of the
  /// callee's block states instead of the joined context, up to this many
  /// nested clones per call path; deeper calls, indirect calls, and calls
  /// past the bounded clone cache fall back soundly to the joined context
  /// (whose fall-through still applies the joined summary).  Depth > 0 also
  /// enables spawn contexts: an address-taken thread entry whose only
  /// unexplained predecessors are thread-create syscalls is seeded with
  /// `$a0` bound to the join of the create sites' `$a1` arguments.
  /// 0 = the context-insensitive PR 4 behavior, bit-for-bit
  /// (`--context-depth 0` on the tools).
  u32 context_depth = 1;
  /// Field-sensitive strided-interval footprint domain: abstract values
  /// carry a residue stride (`base + k*stride`) introduced by shifts,
  /// multiplies and loop-carried induction, joins take the gcd of the
  /// strides and the base distance, and the page fold emits exact residue
  /// pages instead of the dense `[lo, hi]` hull.  Off = the dense interval
  /// behavior, bit-for-bit (`--no-field-sensitive` on the tools).
  bool field_sensitive = true;
  /// Recursion-context depth for field-sensitive mode: a *recursive* call
  /// (its callee entry already on the ancestor context chain) clones a
  /// per-$sp-depth context for up to this many rungs, so each recursion
  /// level gets its own sp-relative envelope; deeper rungs fall back to the
  /// joined context (counted in context_fallbacks).  Requires
  /// `field_sensitive` and `context_depth > 0` (`--sp-depth` on rse_lint).
  u32 field_sp_depth = 2;
};

struct AnalysisResult {
  ControlFlowGraph cfg;
  std::vector<Diagnostic> diagnostics;
  IndirectTargetTable indirect;  // resolved indirect jumps -> legal targets
  u32 unresolved_indirects = 0;  // blocks the CFC must range-check
  PageFootprint footprint;       // data-flow page signature (DDT handoff)

  bool has_errors() const;
  u32 count(Severity severity) const;
};

/// Run CFG recovery plus the full diagnostics pass.  Pure; never throws on
/// malformed programs (malformations become diagnostics).
AnalysisResult analyze(const isa::Program& program, const AnalysisOptions& options = {});

/// "main+0x10"-style label for a text address ('?' when no symbol precedes).
std::string symbolize(const isa::Program& program, Addr addr);

/// One human-readable line: "error[chk-unknown-module] 0x00400010 (main+0x10): ...".
std::string format_diagnostic(const Diagnostic& diagnostic);

/// Machine-readable report (diagnostics + CFG/indirect summary).
std::string to_json(const isa::Program& program, const AnalysisResult& result);

}  // namespace rse::analysis
