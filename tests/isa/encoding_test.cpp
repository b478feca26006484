// Per-opcode encoding table: the independent judge of the opcode table in
// isa/instruction.hpp, as semantics_test.cpp is of isa::execute.
//
// Every expected value below is written by hand from docs/isa.md's field
// layouts, the primary opcodes and function codes, never computed from the
// opcode table.  Each row assembles one line at the start of .text (where
// `main` is 0x0040'0000 and `skip` is two words further on) and must give
// the row's word, which decodes back to the row's op with the row's class,
// destination and sources and, unless the line has a label operand,
// disassembles to text that assembles to the same word.
#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <string>
#include <string_view>

#include "isa/assembler.hpp"
#include "isa/instruction.hpp"

namespace rse::isa {
namespace {

struct Row {
  Op op;
  std::string_view line;
  Word word;
  OpClass cls;
  u8 dest;                 // the register written; 0 for none
  Instr::Sources sources;  // the registers read, rs before rt
};

constexpr std::string_view mnemonic_of(const Row& row) {
  return row.line.substr(0, row.line.find(' '));
}

constexpr OpClass kAlu = OpClass::kIntAlu;
constexpr OpClass kMul = OpClass::kIntMul;
constexpr OpClass kLoad = OpClass::kLoad;
constexpr OpClass kStore = OpClass::kStore;
constexpr OpClass kBranch = OpClass::kBranch;
constexpr OpClass kJump = OpClass::kJump;
constexpr OpClass kSys = OpClass::kSyscall;
constexpr OpClass kChk = OpClass::kChk;

// Registers: t0 = r8, t1 = r9, t2 = r10, s5 = r21, sp = r29, ra = r31.
constexpr Row kRows[] = {
    // op, line, word, class, destination, sources
    // R-type: [31:26]=0 rs rt rd shamt funct
    {Op::kSll, "sll t0, t1, 3", 0x0009'40C0, kAlu, 8, {1, {9}}},
    {Op::kSrl, "srl t0, t1, 3", 0x0009'40C2, kAlu, 8, {1, {9}}},
    {Op::kSra, "sra t0, t1, 31", 0x0009'47C3, kAlu, 8, {1, {9}}},
    {Op::kSllv, "sllv t0, t1, t2", 0x0149'4004, kAlu, 8, {2, {10, 9}}},  // rd t0, rt t1, rs t2
    {Op::kSrlv, "srlv t0, t1, t2", 0x0149'4006, kAlu, 8, {2, {10, 9}}},
    {Op::kSrav, "srav t0, t1, t2", 0x0149'4007, kAlu, 8, {2, {10, 9}}},
    {Op::kAdd, "add t0, t1, t2", 0x012A'4020, kAlu, 8, {2, {9, 10}}},  // rd t0, rs t1, rt t2
    {Op::kSub, "sub t0, t1, t2", 0x012A'4022, kAlu, 8, {2, {9, 10}}},
    {Op::kAnd, "and t0, t1, t2", 0x012A'4024, kAlu, 8, {2, {9, 10}}},
    {Op::kOr, "or t0, t1, t2", 0x012A'4025, kAlu, 8, {2, {9, 10}}},
    {Op::kXor, "xor t0, t1, t2", 0x012A'4026, kAlu, 8, {2, {9, 10}}},
    {Op::kNor, "nor t0, t1, t2", 0x012A'4027, kAlu, 8, {2, {9, 10}}},
    {Op::kSlt, "slt t0, t1, t2", 0x012A'402A, kAlu, 8, {2, {9, 10}}},
    {Op::kSltu, "sltu t0, t1, t2", 0x012A'402B, kAlu, 8, {2, {9, 10}}},
    {Op::kMul, "mul t0, t1, t2", 0x012A'4018, kMul, 8, {2, {9, 10}}},
    {Op::kMulh, "mulh t0, t1, t2", 0x012A'4019, kMul, 8, {2, {9, 10}}},
    {Op::kDiv, "div t0, t1, t2", 0x012A'401A, kMul, 8, {2, {9, 10}}},
    {Op::kRem, "rem t0, t1, t2", 0x012A'401B, kMul, 8, {2, {9, 10}}},
    {Op::kJr, "jr ra", 0x03E0'0008, kJump, 0, {1, {31}}},
    {Op::kJalr, "jalr t0, t1", 0x0120'4009, kJump, 8, {1, {9}}},
    {Op::kSyscall, "syscall", 0x0000'000C, kSys, 0, {}},
    // I-type: opcode rs rt imm16
    {Op::kAddi, "addi t0, t1, -5", 0x2128'FFFB, kAlu, 8, {1, {9}}},
    {Op::kAndi, "andi t0, t1, 0xFF00", 0x3128'FF00, kAlu, 8, {1, {9}}},
    {Op::kOri, "ori t0, t1, 0x8001", 0x3528'8001, kAlu, 8, {1, {9}}},
    {Op::kXori, "xori t0, t1, 65535", 0x3928'FFFF, kAlu, 8, {1, {9}}},
    {Op::kSlti, "slti t0, t1, -32768", 0x2928'8000, kAlu, 8, {1, {9}}},
    {Op::kSltiu, "sltiu t0, t1, 32767", 0x2D28'7FFF, kAlu, 8, {1, {9}}},
    {Op::kLui, "lui t0, 0x1234", 0x3C08'1234, kAlu, 8, {}},
    {Op::kLw, "lw t0, 8(sp)", 0x8FA8'0008, kLoad, 8, {1, {29}}},
    {Op::kLb, "lb t0, -1(t1)", 0x8128'FFFF, kLoad, 8, {1, {9}}},
    {Op::kLbu, "lbu t0, 3(t1)", 0x9128'0003, kLoad, 8, {1, {9}}},
    {Op::kLh, "lh t0, -2(t1)", 0x8528'FFFE, kLoad, 8, {1, {9}}},
    {Op::kLhu, "lhu t0, 2(t1)", 0x9528'0002, kLoad, 8, {1, {9}}},
    {Op::kSw, "sw t0, -4(sp)", 0xAFA8'FFFC, kStore, 0, {2, {29, 8}}},
    {Op::kSb, "sb t0, 0(t1)", 0xA128'0000, kStore, 0, {2, {9, 8}}},
    {Op::kSh, "sh t0, 6(t1)", 0xA528'0006, kStore, 0, {2, {9, 8}}},
    // branches: rs rt, word offset from pc + 4 (skip: +1, main: -1)
    {Op::kBeq, "beq t0, t1, skip", 0x1109'0001, kBranch, 0, {2, {8, 9}}},
    {Op::kBne, "bne t0, t1, main", 0x1509'FFFF, kBranch, 0, {2, {8, 9}}},
    {Op::kBlt, "blt t0, t1, skip", 0x1909'0001, kBranch, 0, {2, {8, 9}}},
    {Op::kBge, "bge t0, t1, main", 0x1D09'FFFF, kBranch, 0, {2, {8, 9}}},
    {Op::kBltu, "bltu t0, t1, skip", 0x4109'0001, kBranch, 0, {2, {8, 9}}},
    {Op::kBgeu, "bgeu t0, t1, main", 0x4509'FFFF, kBranch, 0, {2, {8, 9}}},
    // J-type: opcode, word target
    {Op::kJ, "j main", 0x0810'0000, kJump, 0, {}},
    {Op::kJal, "jal skip", 0x0C10'0002, kJump, 31, {}},
    // CHK: 0x3E module# BLK op rs imm12
    {Op::kChk, "chk ddt, 19, blk, s5, 0xABC", 0xF9E7'5ABC, kChk, 0, {1, {21}}},
};

constexpr bool rows_follow_the_op_enum() {
  if (std::size(kRows) != kNumOps - 1) return false;
  for (unsigned i = 0; i < std::size(kRows); ++i) {
    if (kRows[i].op != static_cast<Op>(i + 1)) return false;
    if (op_info(kRows[i].op).mnemonic != mnemonic_of(kRows[i])) return false;
  }
  return true;
}

constexpr bool mnemonics_are_unique() {
  for (unsigned i = 0; i < kNumOps; ++i) {
    for (unsigned j = i + 1; j < kNumOps; ++j) {
      if (kOps[i].mnemonic == kOps[j].mnemonic) return false;
    }
  }
  return true;
}

constexpr bool encodings_are_unique() {
  for (unsigned i = 1; i < kNumOps; ++i) {
    for (unsigned j = i + 1; j < kNumOps; ++j) {
      const bool same_space = is_r_type(kOps[i].format) == is_r_type(kOps[j].format);
      if (same_space && kOps[i].code == kOps[j].code) return false;
    }
    // Primary opcode 0 belongs to the R-type formats.
    if (!is_r_type(kOps[i].format) && kOps[i].code == 0) return false;
  }
  return true;
}

static_assert(rows_follow_the_op_enum(), "one row per Op, in enum order, named as kOps names it");
static_assert(mnemonics_are_unique());
static_assert(encodings_are_unique());

void PrintTo(const Row& row, std::ostream* os) { *os << row.line; }

bool has_label_operand(Op op) {
  const Format f = op_info(op).format;
  return f == Format::kBranch || f == Format::kJump || f == Format::kCall;
}

/// The first word `line` assembles to at the start of .text.
Word assemble_line(std::string_view line) {
  const Program p = assemble(".text\nmain:\n  " + std::string(line) + "\n  nop\nskip:\n  nop\n");
  return p.text.at(0);
}

class EncodingTable : public ::testing::TestWithParam<Row> {};

TEST_P(EncodingTable, AssemblesDecodesAndRoundTrips) {
  const Row& row = GetParam();
  const Word assembled = assemble_line(row.line);
  EXPECT_EQ(assembled, row.word) << std::hex << "0x" << assembled << " vs 0x" << row.word;
  const Instr in = decode(row.word);
  ASSERT_EQ(in.op, row.op);
  EXPECT_EQ(encode(in), row.word);
  EXPECT_EQ(in.op_class(), row.cls);
  EXPECT_EQ(in.dest_reg(), row.dest == 0 ? std::nullopt : std::optional<u8>(row.dest));
  const Instr::Sources sources = in.source_regs();
  ASSERT_EQ(sources.count, row.sources.count);
  for (u8 i = 0; i < sources.count; ++i) EXPECT_EQ(sources.regs[i], row.sources.regs[i]);
  if (!has_label_operand(row.op)) {
    const std::string text = disassemble(in);
    EXPECT_EQ(assemble_line(text), row.word) << "disassembly: " << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, EncodingTable, ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(mnemonic_of(info.param));
                         });

}  // namespace
}  // namespace rse::isa
