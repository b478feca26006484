// Unit regressions for the field-sensitive strided-interval footprint
// domain (docs/analysis.md): exact page-residue splitting for strides wider
// than a page, $sp-depth recursion contexts, bounded-clone fallback, and
// the degenerate-stride demotions (overflow near INT32_MAX, misaligned
// joins) that must always fall back to the dense hull — never
// under-approximate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "isa/assembler.hpp"

namespace rse::analysis {
namespace {

PageFootprint field_footprint(const std::string& source, bool field = true,
                              u32 sp_depth = 2) {
  AnalysisOptions options;
  options.field_sensitive = field;
  options.field_sp_depth = sp_depth;
  return analyze(isa::assemble(source), options).footprint;
}

const AccessSite* site_of(const PageFootprint& fp, bool store) {
  for (const AccessSite& site : fp.sites) {
    if (site.is_store == store && site.base == AddressBase::kAbsolute &&
        site.precision == AccessPrecision::kOver) {
      return &site;
    }
  }
  return nullptr;
}

// A column walk stepping three pages at a time.  The data segment loads at
// 0x10000000 (page 0x10000).
constexpr const char* kColumnWalk = R"(
.data
mat: .space 49152

.text
main:
  la a0, mat
  li a1, 4
  li a2, 12288
  jal walk
  li a0, 0
  li v0, 1
  syscall

walk:
  li t2, 0
wl:
  mul t3, t2, a2
  add t3, t3, a0
  lw t4, 0(t3)
  addi t4, t4, 1
  sw t4, 0(t3)
  addi t2, t2, 1
  blt t2, a1, wl
  jr ra
)";

/// Strides wider than a page fold to exact residue pages: a four-element
/// walk with a three-page step touches pages {0, 3, 6, 9} of the matrix,
/// not the dense ten-page hull.
TEST(FootprintFieldTest, StrideBeyondPageSplitsIntoResiduePages) {
  const PageFootprint fp = field_footprint(kColumnWalk);
  EXPECT_EQ(fp.unknown_sites, 0u);
  EXPECT_TRUE(fp.field_sensitive);
  const std::vector<u32> want = {0x10000, 0x10003, 0x10006, 0x10009};
  EXPECT_EQ(fp.pages, want);
  EXPECT_EQ(fp.store_pages, want);
  const AccessSite* store = site_of(fp, /*store=*/true);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->stride, 12288);

  // The dense hull covers every page the hull spans.
  const PageFootprint dense = field_footprint(kColumnWalk, /*field=*/false);
  EXPECT_FALSE(dense.field_sensitive);
  EXPECT_EQ(dense.pages.size(), 10u);
  for (const AccessSite& site : dense.sites) EXPECT_EQ(site.stride, 0);
}

// A depth-4 recursive frame writer: each rung pushes a frame and stores the
// remaining depth through an advancing slot pointer.
constexpr const char* kRecursiveWriter = R"(
.data
slots: .space 64

.text
main:
  la a0, slots
  li a1, 4
  jal recw
  li a0, 0
  li v0, 1
  syscall

recw:
  addi sp, sp, -8
  sw ra, 4(sp)
  sw a1, 0(sp)
  sw a1, 0(a0)
  bge r0, a1, recw_done
  addi a0, a0, 4
  addi a1, a1, -1
  jal recw
recw_done:
  lw a1, 0(sp)
  lw ra, 4(sp)
  addi sp, sp, 8
  jr ra
)";

/// $sp-depth recursion contexts separate the recursive frames: the dense
/// domain loses the frame accesses to the widened sp join, the field domain
/// keeps them bounded (and counts the rung clones it spent doing so).
TEST(FootprintFieldTest, SpDepthContextsResolveRecursiveFrames) {
  const PageFootprint field = field_footprint(kRecursiveWriter);
  const PageFootprint dense = field_footprint(kRecursiveWriter, /*field=*/false);
  EXPECT_LT(field.unknown_sites, dense.unknown_sites);
  EXPECT_EQ(field.unknown_sites, 0u);
  EXPECT_GE(field.sp_contexts, 1u);
  EXPECT_EQ(dense.sp_contexts, 0u);
  EXPECT_TRUE(field.has_sp_range);
}

/// Recursion deeper than the rung budget falls back to the joined context
/// instead of cloning without bound — the result stays sound (a superset of
/// nothing it shouldn't be: no site resolves to a smaller set than the
/// joined fallback would give) and the fallback is counted.
TEST(FootprintFieldTest, RecursionPastRungBudgetFallsBackJoined) {
  const PageFootprint capped =
      field_footprint(kRecursiveWriter, /*field=*/true, /*sp_depth=*/1);
  const PageFootprint deep =
      field_footprint(kRecursiveWriter, /*field=*/true, /*sp_depth=*/8);
  // The capped run gives up rungs past the budget; it must never resolve
  // more than the generous budget does, and both bound the same pages.
  EXPECT_GE(capped.unknown_sites, deep.unknown_sites);
  EXPECT_GT(capped.context_fallbacks, 0u);
  EXPECT_EQ(capped.pages, deep.pages);
}

/// A strided offset whose fold would cross INT32_MAX demotes the site to
/// Unknown — never a wrapped (low) page residue.
TEST(FootprintFieldTest, StrideFoldNearIntMaxDemotesToUnknown) {
  const std::string source = R"(
.text
main:
  li t0, 0
  beq a0, r0, skip
  li t0, 2
skip:
  li t1, 0x3FFFC000
  mul t2, t0, t1
  lui t3, 0x7FFF
  ori t3, t3, 0xFFF0
  add t3, t3, t2
  sw r0, 0(t3)
  li a0, 0
  li v0, 1
  syscall
)";
  // t0 in {0, 2}; t1 = 0x3FFFC000, so t2 strides to 0x7FFF8000 and the add
  // lands past INT32_MAX.  The store must be excluded, not wrapped.
  const PageFootprint fp = field_footprint(source);
  EXPECT_EQ(fp.unknown_sites, 1u);
  EXPECT_TRUE(fp.pages.empty());
}

/// Joining misaligned constants (gcd collapses to 1) demotes the value to
/// the dense hull: the site still resolves, with no stride to export.
TEST(FootprintFieldTest, MisalignedJoinDemotesToDenseHull) {
  const std::string source = R"(
.data
buf: .space 64

.text
main:
  li t0, 0
  beq a0, r0, second
  li t0, 5
second:
  bne a1, r0, fold
  li t0, 12
fold:
  la t1, buf
  add t1, t1, t0
  sw r0, 0(t1)
  li a0, 0
  li v0, 1
  syscall
)";
  const PageFootprint fp = field_footprint(source);
  EXPECT_EQ(fp.unknown_sites, 0u);
  const AccessSite* store = site_of(fp, /*store=*/true);
  ASSERT_NE(store, nullptr);
  // {0, 5, 12} has no common stride: the merged site reports a dense hull.
  EXPECT_EQ(store->stride, 0);
  EXPECT_EQ(fp.pages, std::vector<u32>{0x10000});
}

/// Field-off is the revert switch: no strides are introduced anywhere and
/// the exported sites all report dense ranges.
TEST(FootprintFieldTest, FieldOffExportsNoStrides) {
  for (const char* source : {kColumnWalk, kRecursiveWriter}) {
    const PageFootprint fp = field_footprint(source, /*field=*/false);
    EXPECT_FALSE(fp.field_sensitive);
    EXPECT_EQ(fp.sp_contexts, 0u);
    for (const AccessSite& site : fp.sites) EXPECT_EQ(site.stride, 0);
  }
}

}  // namespace
}  // namespace rse::analysis
