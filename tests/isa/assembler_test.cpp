#include "isa/assembler.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/error.hpp"

namespace rse::isa {
namespace {

TEST(Assembler, SimpleArithmetic) {
  const Program p = assemble(R"(
.text
main:
  addi r1, r0, 5
  add r2, r1, r1
)");
  ASSERT_EQ(p.text.size(), 2u);
  const Instr first = decode(p.text[0]);
  EXPECT_EQ(first.op, Op::kAddi);
  EXPECT_EQ(first.rt, 1);
  EXPECT_EQ(first.imm, 5);
  EXPECT_EQ(p.entry, p.symbol("main"));
}

TEST(Assembler, RegisterAliases) {
  const Program p = assemble(R"(
.text
main:
  add v0, a0, t3
  add sp, fp, ra
  add s7, t8, zero
)");
  const Instr i0 = decode(p.text[0]);
  EXPECT_EQ(i0.rd, kV0);
  EXPECT_EQ(i0.rs, kA0);
  EXPECT_EQ(i0.rt, kT0 + 3);
  const Instr i1 = decode(p.text[1]);
  EXPECT_EQ(i1.rd, kSp);
  EXPECT_EQ(i1.rs, kFp);
  EXPECT_EQ(i1.rt, kRa);
  const Instr i2 = decode(p.text[2]);
  EXPECT_EQ(i2.rd, kS0 + 7);
  EXPECT_EQ(i2.rs, kT8);
  EXPECT_EQ(i2.rt, 0);
}

TEST(Assembler, BranchTargetsResolve) {
  const Program p = assemble(R"(
.text
main:
  beq r1, r2, skip
  addi r3, r0, 1
skip:
  addi r4, r0, 2
)");
  const Instr branch = decode(p.text[0]);
  EXPECT_EQ(branch.op, Op::kBeq);
  // skip is 2 instructions ahead of main; offset relative to pc+4 is 1 word.
  EXPECT_EQ(branch.imm, 1);
}

TEST(Assembler, BackwardBranch) {
  const Program p = assemble(R"(
.text
main:
loop:
  addi r1, r1, 1
  bne r1, r2, loop
)");
  const Instr branch = decode(p.text[1]);
  EXPECT_EQ(branch.imm, -2);
}

TEST(Assembler, JumpEncodesWordTarget) {
  const Program p = assemble(R"(
.text
main:
  j main
)");
  const Instr jump = decode(p.text[0]);
  EXPECT_EQ(jump.op, Op::kJ);
  EXPECT_EQ(jump.target << 2, p.symbol("main"));
}

TEST(Assembler, LiSmallAndLarge) {
  const Program p = assemble(R"(
.text
main:
  li r1, 42
  li r2, -7
  li r3, 0x12345678
)");
  ASSERT_EQ(p.text.size(), 4u);  // 1 + 1 + 2
  EXPECT_EQ(decode(p.text[0]).op, Op::kAddi);
  EXPECT_EQ(decode(p.text[1]).imm, -7);
  EXPECT_EQ(decode(p.text[2]).op, Op::kLui);
  EXPECT_EQ(decode(p.text[3]).op, Op::kOri);
}

TEST(Assembler, LaLoadsSymbolAddress) {
  const Program p = assemble(R"(
.data
value: .word 99
.text
main:
  la r1, value
)");
  const Instr lui = decode(p.text[0]);
  const Instr ori = decode(p.text[1]);
  const Addr addr = p.symbol("value");
  EXPECT_EQ((static_cast<u32>(lui.imm) & 0xFFFF) << 16 | (static_cast<u32>(ori.imm) & 0xFFFF),
            addr);
}

TEST(Assembler, DataDirectives) {
  const Program p = assemble(R"(
.data
a: .word 1, 2, 3
b: .byte 7, 8
.align 2
c: .word 0xDEADBEEF
d: .space 8
e: .word 5
)");
  const Addr base = p.data_base;
  EXPECT_EQ(p.symbol("a"), base);
  EXPECT_EQ(p.symbol("b"), base + 12);
  EXPECT_EQ(p.symbol("c"), base + 16);  // aligned past the 2 bytes
  EXPECT_EQ(p.symbol("d"), base + 20);
  EXPECT_EQ(p.symbol("e"), base + 28);
  // little-endian placement
  EXPECT_EQ(p.data[0], 1);
  EXPECT_EQ(p.data[12], 7);
  EXPECT_EQ(p.data[13], 8);
  EXPECT_EQ(p.data[16], 0xEF);
  EXPECT_EQ(p.data[19], 0xDE);
}

TEST(Assembler, WordCanHoldLabel) {
  const Program p = assemble(R"(
.data
ptr: .word target
target: .word 1
.text
main:
  nop
)");
  const Addr target = p.symbol("target");
  u32 stored = 0;
  for (int b = 3; b >= 0; --b) stored = (stored << 8) | p.data[b];
  EXPECT_EQ(stored, target);
}

TEST(Assembler, ChkInstruction) {
  const Program p = assemble(R"(
.text
main:
  chk icm, 0, blk, r0, 0
  chk mlr, 9, nblk, s0, 7
  chk 4, 4, nblk, a0, 0xFF
)");
  const Instr c0 = decode(p.text[0]);
  EXPECT_EQ(c0.op, Op::kChk);
  EXPECT_EQ(c0.chk_module, ModuleId::kIcm);
  EXPECT_TRUE(c0.chk_blocking);
  const Instr c1 = decode(p.text[1]);
  EXPECT_EQ(c1.chk_module, ModuleId::kMlr);
  EXPECT_EQ(c1.chk_op, 9);
  EXPECT_FALSE(c1.chk_blocking);
  EXPECT_EQ(c1.rs, kS0);
  EXPECT_EQ(c1.chk_imm, 7);
  const Instr c2 = decode(p.text[2]);
  EXPECT_EQ(c2.chk_module, ModuleId::kAhbm);
  EXPECT_EQ(c2.chk_imm, 0xFF);
}

TEST(Assembler, MemoryOperandForms) {
  const Program p = assemble(R"(
.data
var: .word 3
.text
main:
  lw r1, 8(r2)
  lw r3, (r4)
  lw r5, -4(sp)
  lw r6, var
  sw r6, var
)");
  EXPECT_EQ(decode(p.text[0]).imm, 8);
  EXPECT_EQ(decode(p.text[1]).imm, 0);
  EXPECT_EQ(decode(p.text[2]).imm, -4);
  // label forms expand to 2 instructions each
  EXPECT_EQ(p.text.size(), 3u + 2u + 2u);
  EXPECT_EQ(decode(p.text[3]).op, Op::kLui);
  EXPECT_EQ(decode(p.text[4]).op, Op::kLw);
  EXPECT_EQ(decode(p.text[6]).op, Op::kSw);
}

TEST(Assembler, PseudoInstructions) {
  const Program p = assemble(R"(
.text
main:
  move r1, r2
  b main
  beqz r3, main
  bnez r4, main
  nop
)");
  EXPECT_EQ(decode(p.text[0]).op, Op::kAdd);
  EXPECT_EQ(decode(p.text[1]).op, Op::kBeq);
  EXPECT_EQ(decode(p.text[2]).op, Op::kBeq);
  EXPECT_EQ(decode(p.text[3]).op, Op::kBne);
  EXPECT_EQ(p.text[4], kNopEncoding);
}

TEST(Assembler, EntryDirective) {
  const Program p = assemble(R"(
.text
start:
  nop
other:
  nop
.entry other
)");
  EXPECT_EQ(p.entry, p.symbol("other"));
}

TEST(Assembler, CommentsAndBlankLines) {
  const Program p = assemble(R"(
# full line comment
.text
main:  ; trailing style
  addi r1, r0, 1   # comment after code
)");
  EXPECT_EQ(p.text.size(), 1u);
}

TEST(Assembler, Errors) {
  EXPECT_THROW(assemble(".text\nmain:\n  frobnicate r1\n"), AssemblyError);
  EXPECT_THROW(assemble(".text\nmain:\n  beq r1, r2, nowhere\n"), AssemblyError);
  EXPECT_THROW(assemble(".text\nmain:\n  addi r1, r0, 99999\n"), AssemblyError);
  EXPECT_THROW(assemble(".text\nmain:\nmain:\n  nop\n"), AssemblyError);
  EXPECT_THROW(assemble(".text\nmain:\n  add r1, r99, r0\n"), AssemblyError);
  EXPECT_THROW(assemble(".text\n  .word 1\n"), AssemblyError);  // .word outside .data

  // Every field range: each boundary assembles, the value one past it does
  // not (none of them wraps).  main is at 0x0040'0000.
  const std::pair<const char*, bool> fields[] = {
      {"addi r1, r0, -32768", true},      {"addi r1, r0, -32769", false},
      {"addi r1, r0, 32767", true},       {"addi r1, r0, 32768", false},
      {"addi a0, zero, 40000", false},    {"slti r1, r0, -32768", true},
      {"slti r1, r0, 32768", false},      {"sltiu r1, r0, 32767", true},
      {"sltiu r1, r0, -32769", false},    {"lw r1, -32768(r2)", true},
      {"lw r1, -32769(r2)", false},       {"sw r1, 32767(r2)", true},
      {"sw r1, 32768(r2)", false},        {"lb r1, 32767", true},
      {"lb r1, 32768", false},            {"andi r1, r2, 0", true},
      {"andi r1, r2, -1", false},         {"andi r1, r2, 65535", true},
      {"andi r1, r2, 65536", false},      {"ori r1, r2, 0xFFFF", true},
      {"ori r1, r2, -1", false},          {"xori r1, r2, 65535", true},
      {"xori r1, r2, 0x10000", false},    {"lui r1, 0", true},
      {"lui r1, -1", false},              {"lui r1, 0xFFFF", true},
      {"lui r1, 0x10000", false},         {"sll r1, r2, 31", true},
      {"sll r1, r2, 32", false},          {"beq r1, r2, 0x00420000", true},
      {"beq r1, r2, 0x00420004", false},  {"bne r1, r2, 0x003E0004", true},
      {"bne r1, r2, 0x003E0000", false},  {"j 0x0FFFFFFC", true},
      {"j 0x10000000", false},            {"jal 0x0FFFFFFC", true},
      {"jal 0x10000000", false},          {"chk icm, 31, blk, r0, 4095", true},
      {"chk icm, 32, blk, r0, 0", false}, {"chk icm, 0, blk, r0, 4096", false},
  };
  for (const auto& [line, accepted] : fields) {
    const std::string source = ".text\nmain:\n  " + std::string(line) + "\n";
    if (accepted) {
      EXPECT_NO_THROW(assemble(source)) << line;
    } else {
      EXPECT_THROW(assemble(source), AssemblyError) << line;
    }
  }

  // Segment bounds: text ends at the data segment, data at the shared
  // libraries (0x6000'0000), or at 2^32 when placed above them.  Each
  // segment may end exactly at its bound; one byte more does not wrap.
  struct Layout {
    Addr text_base, data_base;
    const char* source;
    bool accepted;
  };
  const Layout layouts[] = {
      {0x0FFF'FFF8, kDefaultDataBase, ".text\nmain:\n  nop\n  nop\n", true},
      {0x0FFF'FFF8, kDefaultDataBase, ".text\nmain:\n  nop\n  nop\n  nop\n", false},
      {0x0FFF'FFF8, kDefaultDataBase, ".text\nmain:\n  la t0, main\n  nop\n", false},
      {kDefaultTextBase, 0x5FFF'FFF0, ".data\n  .space 16\n", true},
      {kDefaultTextBase, 0x5FFF'FFF0, ".data\n  .space 17\n", false},
      {kDefaultTextBase, 0x5FFF'FFF0, ".data\n  .byte 1\n  .space 15\n  .word 2\n", false},
      {kDefaultTextBase, 0x5FFF'FFFD, ".data\n  .word 1\n", false},  // aligned to 0x6000'0000
      {kDefaultTextBase, 0xFFFF'FFF0, ".data\n  .space 16\n", true},
      {kDefaultTextBase, 0xFFFF'FFF0, ".data\n  .space 17\n", false},
      {kDefaultTextBase, kDefaultDataBase, ".data\n  .space 4294967295\n", false},
      {kDefaultTextBase, kDefaultDataBase, ".data\n  .space 0x50000000\n  .byte 0\n", false},
  };
  for (const Layout& layout : layouts) {
    const AssembleOptions options{.text_base = layout.text_base, .data_base = layout.data_base};
    if (layout.accepted) {
      EXPECT_NO_THROW(assemble(layout.source, options)) << layout.source;
    } else {
      EXPECT_THROW(assemble(layout.source, options), AssemblyError) << layout.source;
    }
  }
}

TEST(Assembler, TextWordLookup) {
  const Program p = assemble(".text\nmain:\n  nop\n  addi r1, r0, 3\n");
  EXPECT_EQ(p.text_word(p.text_base), kNopEncoding);
  EXPECT_EQ(decode(p.text_word(p.text_base + 4)).imm, 3);
  EXPECT_THROW(p.text_word(p.text_base + 8), AssemblyError);
  EXPECT_THROW(p.text_word(p.text_base + 1), AssemblyError);
}

}  // namespace
}  // namespace rse::isa
