// Static data-flow page-footprint signatures (the DDT analogue of the CFC
// successor-table handoff).  A per-block abstract interpreter over register
// values propagates constants (lui/ori materializations) and sp/gp-relative
// offsets along CFG edges and derives, for every reachable load/store site,
// the set of byte addresses it can touch.  Folded to 4 KB page granularity
// the result is a footprint signature the loader hands to the DDT
// (`DdtModule::set_footprint_table`): the DDT pre-reserves PST entries for
// the predicted store pages and raises a footprint-violation detection when
// a committed access at a statically resolved site lands outside the
// predicted page set.
//
// Abstract domain (documented in docs/analysis.md):
//   * a register value is Unknown, Abs[lo,hi] (a signed-i32 constant range),
//     Sp[lo,hi] (offset from the executing thread's initial stack pointer)
//     or Gp[lo,hi] (offset from the initial global pointer); in
//     field-sensitive mode every non-Unknown value additionally carries a
//     residue stride (the value set is {lo, lo+s, ..., hi}), introduced by
//     shifts/multiplies and loop-carried induction, joined by gcd, and
//     folded to exact page residues instead of the dense hull;
//   * roots (the entry point and every address-taken block) seed all
//     registers Unknown except r0 = 0, sp = Sp[0,0], gp = Gp[0,0];
//   * call edges enter the callee with ra bound to the return site; the
//     call's fall-through applies the callee's FunctionSummary in the
//     default interprocedural mode (preserved registers flow through,
//     summary pages/envelopes join in rebased against the caller's sp), or
//     clobbers the full caller-saved set (at, v0/v1, a0-a3, t0-t9, ra) in
//     flat mode, assuming sp/gp/fp/s0-s7 preserved (ABI assumption);
//   * summaries are computed bottom-up over the call graph with a bounded
//     fixpoint for recursion; indirect calls join over the address-taken
//     candidate set;
//   * conditional-branch edges refine operand ranges (loop bounds such as
//     `blt t0, t2` with a constant t2 become finite index ranges);
//   * joins widen after a per-block visit budget: straight to Unknown in
//     flat mode, one rung at a time up the program's own materialized-
//     constant ladder at interprocedural join points (with a strike-count
//     backstop), so the fixpoint always terminates.
//
// Soundness contract (pinned by tests/analysis/footprint_property_test.cpp):
// every page a program dynamically touches from a *resolved* site is inside
// the static footprint; unresolved sites are excluded from checking rather
// than guessed at.
#pragma once

#include <vector>

#include "analysis/cfg.hpp"
#include "common/types.hpp"
#include "isa/program.hpp"

namespace rse::analysis {

/// How precisely a memory-access site's address set was resolved.
enum class AccessPrecision : u8 {
  kExact,    // a single address (possibly spanning 2 pages for a word)
  kOver,     // a finite over-approximate range
  kUnknown,  // not statically resolvable; excluded from DDT checking
};

/// Which base the resolved range is relative to.
enum class AddressBase : u8 {
  kAbsolute,  // [lo, hi] are byte addresses
  kStack,     // [lo, hi] are offsets from the thread's initial sp
  kGlobal,    // [lo, hi] are offsets from the initial gp
  kUnknown,
};

/// One reachable load/store instruction and its derived address range.
struct AccessSite {
  Addr pc = 0;
  bool is_store = false;
  AddressBase base = AddressBase::kUnknown;
  AccessPrecision precision = AccessPrecision::kUnknown;
  i64 lo = 0;  // first byte the access can touch (inclusive)
  i64 hi = 0;  // last byte the access can touch (inclusive)
  /// Residue grid of the base addresses inside [lo, hi] (field-sensitive
  /// mode): 0 = dense or singleton (every byte of the hull is possible),
  /// >= 2 = the base address only takes values lo + k*stride.  The page
  /// fold uses it to skip pages the strided walk can never touch.
  i64 stride = 0;
};

/// Per-function fold of the absolute sites (function = nearest preceding
/// entry candidate, as in the CFG's return-site inference).
struct FunctionFootprint {
  Addr entry = 0;
  std::vector<u32> pages;        // absolute pages touched, sorted
  std::vector<u32> store_pages;  // subset with at least one store, sorted
  u32 exact_sites = 0;
  u32 over_sites = 0;
  u32 unknown_sites = 0;
};

/// Parametric per-function summary (interprocedural mode).  Everything is
/// expressed against the function's *own* entry sp/gp, so one summary serves
/// every call site: instantiation rebases the envelopes by the caller's
/// sp/gp state at the call, and joins over the address-taken candidate set
/// for indirect calls.
struct FunctionSummary {
  Addr entry = 0;
  /// False: the function contains a construct the summary cannot cover
  /// (control leaves the function region other than by call or return, or
  /// the recursion fixpoint had to be force-widened) — callers fall back to
  /// the flat full-clobber call model and count one unknown contribution.
  bool summarized = false;
  /// Bit r set: a call to this function may leave register r holding a value
  /// different from the one at the call site (transitively through its
  /// callees).  A call's fall-through keeps every caller-saved register
  /// whose bit is clear; sp/gp bits are cleared only when every return path
  /// provably restores them by arithmetic.
  u32 clobbered_regs = 0;
  bool returns = false;          // a `jr $ra` is reachable from the entry
  std::vector<u32> pages;        // absolute pages, incl. instantiated callees
  std::vector<u32> store_pages;  // subset with at least one store
  bool has_sp_range = false;
  i64 sp_lo = 0;
  i64 sp_hi = 0;  // envelope of sp-relative accesses vs. the entry sp
  bool has_gp_range = false;
  i64 gp_lo = 0;
  i64 gp_hi = 0;  // envelope of gp-relative accesses vs. the entry gp
  u32 unknown_sites = 0;  // own + callee contributions the summary can't place
};

/// Program-wide page-granularity footprint signature.
struct PageFootprint {
  std::vector<AccessSite> sites;             // every reachable site, by pc
  std::vector<FunctionFootprint> functions;  // sorted by entry
  std::vector<u32> pages;        // union of absolute pages, sorted
  std::vector<u32> store_pages;  // subset with at least one store, sorted
  // Envelope of sp-relative accesses (byte offsets from the thread's
  // initial sp; the loader resolves them against each thread's stack top).
  bool has_sp_range = false;
  i64 sp_lo = 0;
  i64 sp_hi = 0;
  // Envelope of gp-relative accesses (offsets from the initial gp).
  bool has_gp_range = false;
  i64 gp_lo = 0;
  i64 gp_hi = 0;
  u32 exact_sites = 0;
  u32 over_sites = 0;
  u32 unknown_sites = 0;

  /// Which call model produced this footprint (AnalysisOptions mirror).
  bool interprocedural = false;
  /// Per-function parametric summaries, sorted by entry.  Empty in flat
  /// mode.  Informational for callers (rse_lint dumps them); the global
  /// site pass above is what the DDT's soundness rests on.
  std::vector<FunctionSummary> summaries;

  /// Effective context-sensitivity depth (0 when disabled or in flat mode).
  u32 context_depth = 0;
  /// Per-(callee, argument-tuple) clones the bounded cache admitted.
  u32 contexts_cloned = 0;
  /// Call entries that fell back to the joined context (depth budget,
  /// cache saturation, or indirect call).
  u32 context_fallbacks = 0;
  /// Address-taken thread entries whose `$a0` was bound from create sites.
  u32 spawn_contexts = 0;
  /// Whether the strided-interval domain was active (AnalysisOptions
  /// mirror; recorded so consumers can tell the fold discipline apart).
  bool field_sensitive = false;
  /// Recursive calls that entered a per-$sp-depth clone (field mode).
  u32 sp_contexts = 0;

  /// Per-pc refined page sets for sites the context-sensitive pass
  /// resolved more tightly than the single-range hull in `sites` can
  /// express: the union over contexts of each context's page range
  /// (absolute pages; `$gp`-relative ranges fold in at the initial gp = 0,
  /// matching the loader convention).  A pc listed here is checked by the
  /// DDT against its own page set plus the runtime-registered stack pages
  /// (stack-relative context components fold into the sp envelope above).
  /// Sorted by pc.  Context-insensitive runs only emit entries here in
  /// field-sensitive mode, where a strided site's residue pages can be
  /// strictly tighter than the hull even with a single context.
  struct SitePages {
    Addr pc = 0;
    bool is_store = false;
    std::vector<u32> pages;  // sorted
  };
  std::vector<SitePages> context_pages;

  /// PCs of all resolved (non-Unknown) sites, sorted — the DDT checks
  /// exactly these and leaves unresolved sites alone (sound under partial
  /// resolution).
  std::vector<Addr> checked_pcs() const;

  bool empty() const { return sites.empty(); }
};

struct AnalysisOptions;  // analysis/analyzer.hpp

/// Runs the abstract interpreter over an already-recovered CFG, with the
/// footprint knobs of `options`.
PageFootprint compute_footprint(const isa::Program& program,
                                const ControlFlowGraph& cfg,
                                const AnalysisOptions& options);

}  // namespace rse::analysis
