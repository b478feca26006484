// Per-opcode semantics table: the independent judge of isa/semantics.hpp.
//
// Every expected value below is written by hand from docs/isa.md, never
// computed by isa::execute, so the shared executor is never its own oracle.
// Each row places one instruction at kPc over a known register file and two
// known data words, then runs it on every engine that instantiates the
// executor: the in-order interpreter, the fast engine with superblock
// chaining on and off, and the cycle-accurate out-of-order core.  All four
// must produce the row's registers, memory and successor PC.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "exec/block_cache.hpp"
#include "exec/fast_engine.hpp"
#include "isa/interpreter.hpp"
#include "isa/semantics.hpp"
#include "os/machine.hpp"

namespace rse {
namespace {

using isa::Op;
using isa::Trap;

constexpr Addr kPc = 0x0040'0100;   // the instruction under test
constexpr Addr kData = 0x1000'0000;  // two data words every row may touch
constexpr Word kMem0 = 0x1122'3344;  // bytes 44 33 22 11 at kData
constexpr Word kMem1 = 0x8000'7F80;  // bytes 80 7F 00 80 at kData + 4
constexpr u8 kT0 = 8;
constexpr u8 kT1 = 9;
constexpr u8 kT2 = 10;
constexpr u8 kRa = isa::kRa;
constexpr Word kIntMin = 0x8000'0000u;

isa::Instr r_type(Op op, u8 rd, u8 rs, u8 rt) {
  isa::Instr in;
  in.op = op;
  in.rd = rd;
  in.rs = rs;
  in.rt = rt;
  return in;
}

isa::Instr shift(Op op, u8 rd, u8 rt, u8 shamt) {
  isa::Instr in = r_type(op, rd, 0, rt);
  in.shamt = shamt;
  return in;
}

isa::Instr i_type(Op op, u8 rt, u8 rs, i32 imm) {
  isa::Instr in;
  in.op = op;
  in.rt = rt;
  in.rs = rs;
  in.imm = imm;
  return in;
}

isa::Instr jump(Op op, Addr target) {
  isa::Instr in;
  in.op = op;
  in.target = target >> 2;
  return in;
}

isa::Instr chk() {
  isa::Instr in;
  in.op = Op::kChk;
  in.chk_module = isa::ModuleId::kIcm;
  in.rs = kT0;
  return in;
}

isa::Instr syscall() {
  isa::Instr in;
  in.op = Op::kSyscall;
  return in;
}

isa::Instr illegal() {
  isa::Instr in;
  in.raw = 0xFC00'0000u;  // primary opcode 0x3F is unassigned
  return in;
}

Word word_of(const isa::Instr& in) { return in.op == Op::kInvalid ? in.raw : isa::encode(in); }

struct Row {
  const char* name;
  isa::Instr in;
  /// Registers set before the instruction; every other rN holds 0x100 + N.
  std::vector<std::pair<u8, Word>> init = {};
  Addr next = kPc + 4;  ///< expected successor PC
  u8 dest = 0;          ///< the one register expected to change (0: none)
  Word value = 0;       ///< its expected value
  Word mem0 = kMem0;    ///< expected word at kData afterwards
  Word mem1 = kMem1;    ///< expected word at kData + 4 afterwards
  Trap trap = Trap::kNone;
};

// gtest names a failing row by this instead of dumping its bytes.
void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      // ---- shifts
      {.name = "sll", .in = shift(Op::kSll, kT2, kT1, 4), .init = {{kT1, 0x1234'5678}},
       .dest = kT2, .value = 0x2345'6780},
      {.name = "srl", .in = shift(Op::kSrl, kT2, kT1, 4), .init = {{kT1, 0x8000'0010}},
       .dest = kT2, .value = 0x0800'0001},
      {.name = "sra", .in = shift(Op::kSra, kT2, kT1, 4), .init = {{kT1, 0x8000'0010}},
       .dest = kT2, .value = 0xF800'0001},
      {.name = "sllv", .in = r_type(Op::kSllv, kT2, kT0, kT1),
       .init = {{kT0, 4}, {kT1, 0x1234'5678}}, .dest = kT2, .value = 0x2345'6780},
      {.name = "sllv_amount_33_uses_low_5_bits", .in = r_type(Op::kSllv, kT2, kT0, kT1),
       .init = {{kT0, 33}, {kT1, 0x1234'5678}}, .dest = kT2, .value = 0x2468'ACF0},
      {.name = "srlv", .in = r_type(Op::kSrlv, kT2, kT0, kT1),
       .init = {{kT0, 4}, {kT1, 0x8000'0010}}, .dest = kT2, .value = 0x0800'0001},
      {.name = "srlv_amount_0xffffffe4_uses_low_5_bits", .in = r_type(Op::kSrlv, kT2, kT0, kT1),
       .init = {{kT0, 0xFFFF'FFE4}, {kT1, 0x8000'0010}}, .dest = kT2, .value = 0x0800'0001},
      {.name = "srav", .in = r_type(Op::kSrav, kT2, kT0, kT1),
       .init = {{kT0, 4}, {kT1, 0x8000'0010}}, .dest = kT2, .value = 0xF800'0001},
      {.name = "srav_amount_63_uses_low_5_bits", .in = r_type(Op::kSrav, kT2, kT0, kT1),
       .init = {{kT0, 63}, {kT1, 0x8000'0010}}, .dest = kT2, .value = 0xFFFF'FFFF},
      // ---- R-type arithmetic and logic
      {.name = "add_wraps", .in = r_type(Op::kAdd, kT2, kT0, kT1),
       .init = {{kT0, 0xFFFF'FFFF}, {kT1, 2}}, .dest = kT2, .value = 1},
      {.name = "add_to_r0_is_discarded", .in = r_type(Op::kAdd, 0, kT0, kT1),
       .init = {{kT0, 1}, {kT1, 2}}},
      {.name = "sub_wraps", .in = r_type(Op::kSub, kT2, kT0, kT1), .init = {{kT0, 1}, {kT1, 2}},
       .dest = kT2, .value = 0xFFFF'FFFF},
      {.name = "and", .in = r_type(Op::kAnd, kT2, kT0, kT1),
       .init = {{kT0, 0xF0F0'F0F0}, {kT1, 0xFF00'FF00}}, .dest = kT2, .value = 0xF000'F000},
      {.name = "or", .in = r_type(Op::kOr, kT2, kT0, kT1),
       .init = {{kT0, 0xF0F0'F0F0}, {kT1, 0x0F00'0F00}}, .dest = kT2, .value = 0xFFF0'FFF0},
      {.name = "xor", .in = r_type(Op::kXor, kT2, kT0, kT1),
       .init = {{kT0, 0xF0F0'F0F0}, {kT1, 0xFF00'FF00}}, .dest = kT2, .value = 0x0FF0'0FF0},
      {.name = "nor", .in = r_type(Op::kNor, kT2, kT0, kT1),
       .init = {{kT0, 0xF0F0'F0F0}, {kT1, 0x0F00'0F00}}, .dest = kT2, .value = 0x000F'000F},
      {.name = "slt_signed_true", .in = r_type(Op::kSlt, kT2, kT0, kT1),
       .init = {{kT0, 0xFFFF'FFFF}, {kT1, 1}}, .dest = kT2, .value = 1},
      {.name = "slt_signed_false", .in = r_type(Op::kSlt, kT2, kT0, kT1),
       .init = {{kT0, 1}, {kT1, 0xFFFF'FFFF}}, .dest = kT2, .value = 0},
      {.name = "sltu_unsigned_true", .in = r_type(Op::kSltu, kT2, kT0, kT1),
       .init = {{kT0, 1}, {kT1, 0xFFFF'FFFF}}, .dest = kT2, .value = 1},
      {.name = "sltu_unsigned_false", .in = r_type(Op::kSltu, kT2, kT0, kT1),
       .init = {{kT0, 0xFFFF'FFFF}, {kT1, 1}}, .dest = kT2, .value = 0},
      // ---- multiply and divide
      {.name = "mul_negative", .in = r_type(Op::kMul, kT2, kT0, kT1),
       .init = {{kT0, 0xFFFF'FFFD}, {kT1, 5}}, .dest = kT2, .value = 0xFFFF'FFF1},
      {.name = "mul_keeps_low_word", .in = r_type(Op::kMul, kT2, kT0, kT1),
       .init = {{kT0, 0x0001'0001}, {kT1, 0x0001'0001}}, .dest = kT2, .value = 0x0002'0001},
      {.name = "mulh", .in = r_type(Op::kMulh, kT2, kT0, kT1),
       .init = {{kT0, 0x1000'0000}, {kT1, 0x10}}, .dest = kT2, .value = 1},
      {.name = "mulh_negative_times_positive", .in = r_type(Op::kMulh, kT2, kT0, kT1),
       .init = {{kT0, 0xFFFF'FFFE}, {kT1, 3}}, .dest = kT2, .value = 0xFFFF'FFFF},
      {.name = "mulh_both_negative", .in = r_type(Op::kMulh, kT2, kT0, kT1),
       .init = {{kT0, kIntMin}, {kT1, kIntMin}}, .dest = kT2, .value = 0x4000'0000},
      {.name = "mulh_minus_one_squared", .in = r_type(Op::kMulh, kT2, kT0, kT1),
       .init = {{kT0, 0xFFFF'FFFF}, {kT1, 0xFFFF'FFFF}}, .dest = kT2, .value = 0},
      {.name = "div_truncates", .in = r_type(Op::kDiv, kT2, kT0, kT1),
       .init = {{kT0, 0xFFFF'FFF1}, {kT1, 4}}, .dest = kT2, .value = 0xFFFF'FFFD},
      {.name = "div_by_zero_is_zero", .in = r_type(Op::kDiv, kT2, kT0, kT1),
       .init = {{kT0, 7}, {kT1, 0}}, .dest = kT2, .value = 0},
      {.name = "div_by_minus_one_negates", .in = r_type(Op::kDiv, kT2, kT0, kT1),
       .init = {{kT0, 7}, {kT1, 0xFFFF'FFFF}}, .dest = kT2, .value = 0xFFFF'FFF9},
      {.name = "div_int_min_by_minus_one_wraps", .in = r_type(Op::kDiv, kT2, kT0, kT1),
       .init = {{kT0, kIntMin}, {kT1, 0xFFFF'FFFF}}, .dest = kT2, .value = kIntMin},
      {.name = "rem_takes_dividend_sign", .in = r_type(Op::kRem, kT2, kT0, kT1),
       .init = {{kT0, 0xFFFF'FFF1}, {kT1, 4}}, .dest = kT2, .value = 0xFFFF'FFFD},
      {.name = "rem_negative_divisor", .in = r_type(Op::kRem, kT2, kT0, kT1),
       .init = {{kT0, 7}, {kT1, 0xFFFF'FFFE}}, .dest = kT2, .value = 1},
      {.name = "rem_by_zero_is_zero", .in = r_type(Op::kRem, kT2, kT0, kT1),
       .init = {{kT0, 7}, {kT1, 0}}, .dest = kT2, .value = 0},
      {.name = "rem_int_min_by_minus_one_is_zero", .in = r_type(Op::kRem, kT2, kT0, kT1),
       .init = {{kT0, kIntMin}, {kT1, 0xFFFF'FFFF}}, .dest = kT2, .value = 0},
      // ---- I-type arithmetic and logic
      {.name = "addi_sign_extends", .in = i_type(Op::kAddi, kT1, kT0, -1), .init = {{kT0, 0}},
       .dest = kT1, .value = 0xFFFF'FFFF},
      {.name = "andi_zero_extends", .in = i_type(Op::kAndi, kT1, kT0, 0x8001),
       .init = {{kT0, 0xFFFF'FFFF}}, .dest = kT1, .value = 0x0000'8001},
      {.name = "ori_zero_extends", .in = i_type(Op::kOri, kT1, kT0, 0x8001),
       .init = {{kT0, 0x1234'0000}}, .dest = kT1, .value = 0x1234'8001},
      {.name = "xori_zero_extends", .in = i_type(Op::kXori, kT1, kT0, 0x8001),
       .init = {{kT0, 0x0000'FFFF}}, .dest = kT1, .value = 0x0000'7FFE},
      {.name = "slti_signed_true", .in = i_type(Op::kSlti, kT1, kT0, -4),
       .init = {{kT0, 0xFFFF'FFFB}}, .dest = kT1, .value = 1},
      {.name = "slti_signed_false", .in = i_type(Op::kSlti, kT1, kT0, -4), .init = {{kT0, 5}},
       .dest = kT1, .value = 0},
      {.name = "sltiu_sign_extended_imm_compared_unsigned", .in = i_type(Op::kSltiu, kT1, kT0, -1),
       .init = {{kT0, 5}}, .dest = kT1, .value = 1},
      {.name = "sltiu_false", .in = i_type(Op::kSltiu, kT1, kT0, 1), .init = {{kT0, 0xFFFF'FFFF}},
       .dest = kT1, .value = 0},
      {.name = "lui", .in = i_type(Op::kLui, kT1, 0, 0x8001), .dest = kT1, .value = 0x8001'0000},
      // ---- loads (t0 = kData)
      {.name = "lw", .in = i_type(Op::kLw, kT1, kT0, 4), .init = {{kT0, kData}}, .dest = kT1,
       .value = 0x8000'7F80},
      {.name = "lw_negative_offset", .in = i_type(Op::kLw, kT1, kT0, -8),
       .init = {{kT0, kData + 8}}, .dest = kT1, .value = 0x1122'3344},
      {.name = "lw_misaligned_truncates", .in = i_type(Op::kLw, kT1, kT0, 7),
       .init = {{kT0, kData}}, .dest = kT1, .value = 0x8000'7F80},
      {.name = "lw_to_r0_is_discarded", .in = i_type(Op::kLw, 0, kT0, 0), .init = {{kT0, kData}}},
      {.name = "lh_sign_extends_0x8000", .in = i_type(Op::kLh, kT1, kT0, 6),
       .init = {{kT0, kData}}, .dest = kT1, .value = 0xFFFF'8000},
      {.name = "lh_positive", .in = i_type(Op::kLh, kT1, kT0, 4), .init = {{kT0, kData}},
       .dest = kT1, .value = 0x0000'7F80},
      {.name = "lh_misaligned_truncates", .in = i_type(Op::kLh, kT1, kT0, 7),
       .init = {{kT0, kData}}, .dest = kT1, .value = 0xFFFF'8000},
      {.name = "lhu_zero_extends_0x8000", .in = i_type(Op::kLhu, kT1, kT0, 6),
       .init = {{kT0, kData}}, .dest = kT1, .value = 0x0000'8000},
      {.name = "lb_sign_extends_0x80", .in = i_type(Op::kLb, kT1, kT0, 4), .init = {{kT0, kData}},
       .dest = kT1, .value = 0xFFFF'FF80},
      {.name = "lb_positive", .in = i_type(Op::kLb, kT1, kT0, 5), .init = {{kT0, kData}},
       .dest = kT1, .value = 0x0000'007F},
      {.name = "lbu_zero_extends_0x80", .in = i_type(Op::kLbu, kT1, kT0, 7),
       .init = {{kT0, kData}}, .dest = kT1, .value = 0x0000'0080},
      // ---- stores (t0 = kData, t1 = 0xAABBCCDD: bytes DD CC BB AA)
      {.name = "sw", .in = i_type(Op::kSw, kT1, kT0, 0),
       .init = {{kT0, kData}, {kT1, 0xAABB'CCDD}}, .mem0 = 0xAABB'CCDD},
      {.name = "sw_misaligned_truncates", .in = i_type(Op::kSw, kT1, kT0, 6),
       .init = {{kT0, kData}, {kT1, 0xAABB'CCDD}}, .mem1 = 0xAABB'CCDD},
      {.name = "sh_writes_low_half", .in = i_type(Op::kSh, kT1, kT0, 2),
       .init = {{kT0, kData}, {kT1, 0xAABB'CCDD}}, .mem0 = 0xCCDD'3344},
      {.name = "sh_misaligned_truncates", .in = i_type(Op::kSh, kT1, kT0, 5),
       .init = {{kT0, kData}, {kT1, 0xAABB'CCDD}}, .mem1 = 0x8000'CCDD},
      {.name = "sb_writes_low_byte", .in = i_type(Op::kSb, kT1, kT0, 1),
       .init = {{kT0, kData}, {kT1, 0xAABB'CCDD}}, .mem0 = 0x1122'DD44},
      {.name = "sb_top_byte_of_word", .in = i_type(Op::kSb, kT1, kT0, 7),
       .init = {{kT0, kData}, {kT1, 0xAABB'CCDD}}, .mem1 = 0xDD00'7F80},
      // ---- conditional branches (a target at kPc itself would re-run the row)
      {.name = "beq_taken", .in = i_type(Op::kBeq, kT1, kT0, 3), .init = {{kT0, 5}, {kT1, 5}},
       .next = 0x0040'0110},
      {.name = "beq_not_taken", .in = i_type(Op::kBeq, kT1, kT0, 3), .init = {{kT0, 5}, {kT1, 6}},
       .next = 0x0040'0104},
      {.name = "beq_offset_0_taken_falls_through", .in = i_type(Op::kBeq, kT1, kT0, 0),
       .init = {{kT0, 5}, {kT1, 5}}, .next = 0x0040'0104},
      {.name = "bne_taken_backward", .in = i_type(Op::kBne, kT1, kT0, -2),
       .init = {{kT0, 5}, {kT1, 6}}, .next = 0x0040'00FC},
      {.name = "bne_not_taken", .in = i_type(Op::kBne, kT1, kT0, -2),
       .init = {{kT0, 5}, {kT1, 5}}, .next = 0x0040'0104},
      {.name = "blt_signed_taken", .in = i_type(Op::kBlt, kT1, kT0, 1),
       .init = {{kT0, 0xFFFF'FFFF}, {kT1, 1}}, .next = 0x0040'0108},
      {.name = "blt_signed_not_taken", .in = i_type(Op::kBlt, kT1, kT0, 1),
       .init = {{kT0, 1}, {kT1, 0xFFFF'FFFF}}, .next = 0x0040'0104},
      {.name = "bge_taken_on_equal", .in = i_type(Op::kBge, kT1, kT0, 1),
       .init = {{kT0, kIntMin}, {kT1, kIntMin}}, .next = 0x0040'0108},
      {.name = "bge_signed_not_taken", .in = i_type(Op::kBge, kT1, kT0, 1),
       .init = {{kT0, 0xFFFF'FFFF}, {kT1, 0}}, .next = 0x0040'0104},
      {.name = "bltu_unsigned_taken", .in = i_type(Op::kBltu, kT1, kT0, 2),
       .init = {{kT0, 1}, {kT1, 0xFFFF'FFFF}}, .next = 0x0040'010C},
      {.name = "bltu_unsigned_not_taken", .in = i_type(Op::kBltu, kT1, kT0, 2),
       .init = {{kT0, 0xFFFF'FFFF}, {kT1, 1}}, .next = 0x0040'0104},
      {.name = "bgeu_unsigned_taken", .in = i_type(Op::kBgeu, kT1, kT0, 2),
       .init = {{kT0, 0xFFFF'FFFF}, {kT1, 1}}, .next = 0x0040'010C},
      {.name = "bgeu_unsigned_not_taken", .in = i_type(Op::kBgeu, kT1, kT0, 2),
       .init = {{kT0, 1}, {kT1, 0xFFFF'FFFF}}, .next = 0x0040'0104},
      // ---- jumps
      {.name = "j", .in = jump(Op::kJ, 0x0040'0200), .next = 0x0040'0200},
      {.name = "jal_links_pc_plus_4", .in = jump(Op::kJal, 0x0040'0200), .next = 0x0040'0200,
       .dest = kRa, .value = 0x0040'0104},
      {.name = "jr", .in = r_type(Op::kJr, 0, kT0, 0), .init = {{kT0, 0x0040'0300}},
       .next = 0x0040'0300},
      {.name = "jalr_links_pc_plus_4", .in = r_type(Op::kJalr, kRa, kT0, 0),
       .init = {{kT0, 0x0040'0300}}, .next = 0x0040'0300, .dest = kRa, .value = 0x0040'0104},
      {.name = "jalr_link_into_its_own_source", .in = r_type(Op::kJalr, kT0, kT0, 0),
       .init = {{kT0, 0x0040'0300}}, .next = 0x0040'0300, .dest = kT0, .value = 0x0040'0104},
      {.name = "jalr_to_r0_does_not_link", .in = r_type(Op::kJalr, 0, kT0, 0),
       .init = {{kT0, 0x0040'0300}}, .next = 0x0040'0300},
      // ---- CHK, syscall, illegal word
      {.name = "chk_is_an_architectural_nop", .in = chk(), .init = {{kT0, 0x1234}}},
      {.name = "syscall_traps_without_effect", .in = syscall(), .trap = Trap::kSyscall},
      {.name = "illegal_word_traps_without_effect", .in = illegal(), .trap = Trap::kIllegal},
  };
  return table;
}

using Regs = std::array<Word, isa::kNumRegs>;

Regs initial_regs(const Row& row) {
  Regs regs{};
  for (u8 r = 1; r < isa::kNumRegs; ++r) regs[r] = 0x100u + r;
  for (const auto& [reg, value] : row.init) regs[reg] = value;
  return regs;
}

void load_image(mem::MainMemory& memory, const Row& row) {
  memory.write_u32(kPc, word_of(row.in));
  memory.write_u32(kData, kMem0);
  memory.write_u32(kData + 4, kMem1);
}

/// What one engine did with a row.  `next` is meaningful only without a trap.
struct Result {
  Regs regs{};
  Addr next = 0;
  Word mem0 = 0;
  Word mem1 = 0;
  Trap trap = Trap::kNone;
};

Result run_interpreter(const Row& row) {
  mem::MainMemory memory;
  load_image(memory, row);
  isa::Interpreter interp(memory);
  const Regs regs = initial_regs(row);
  for (u8 r = 1; r < isa::kNumRegs; ++r) interp.set_reg(r, regs[r]);
  interp.set_pc(kPc);
  bool syscalled = false;
  interp.set_syscall_handler([&syscalled](isa::Interpreter&) {
    syscalled = true;
    return false;
  });
  interp.step();

  Result out;
  out.regs = interp.regs();
  out.next = interp.pc();
  out.mem0 = memory.read_u32(kData);
  out.mem1 = memory.read_u32(kData + 4);
  out.trap = interp.hit_illegal() ? Trap::kIllegal : syscalled ? Trap::kSyscall : Trap::kNone;
  return out;
}

Result run_fast(const Row& row, bool chaining) {
  mem::MainMemory memory;
  load_image(memory, row);
  exec::BlockCache cache(memory);
  cache.set_chaining(chaining);
  exec::FastEngine engine(memory, cache, kPc, kPc + 4);
  engine.set_regs(initial_regs(row));
  engine.set_pc(kPc);
  const exec::FastEngine::Stop stop = engine.run_until(1);

  Result out;
  out.regs = engine.regs();
  out.next = engine.pc();
  out.mem0 = memory.read_u32(kData);
  out.mem1 = memory.read_u32(kData + 4);
  // The engine stops ON a syscall or illegal word without executing it.  An
  // executed instruction whose successor lies outside the one-word text
  // range may also report kIllegal, so executed() tells the two apart.
  if (engine.executed() == 0) {
    out.trap = stop == exec::FastEngine::Stop::kSyscall ? Trap::kSyscall : Trap::kIllegal;
  }
  return out;
}

/// OS side of the cycle-accurate run.  Text is the single word at kPc, so
/// whatever the core fetches next traps as illegal at its PC: that PC is the
/// row's successor.
class TrapRecorder : public cpu::OsClient {
 public:
  bool done = false;
  Addr next = 0;
  Trap trap = Trap::kNone;

  SyscallResult on_syscall(Cycle) override {
    done = true;
    trap = Trap::kSyscall;
    return {0, /*suspend=*/true};
  }
  bool on_check_error(Cycle, Addr, isa::ModuleId) override { return true; }
  void on_illegal(Cycle, Addr pc) override {
    done = true;
    if (pc == kPc) {
      trap = Trap::kIllegal;
    } else {
      next = pc;
    }
  }
};

Result run_core(const Row& row) {
  os::Machine machine;
  load_image(machine.memory(), row);
  cpu::Core& core = machine.core();
  TrapRecorder recorder;
  core.set_os(&recorder);
  core.set_text_range(kPc, kPc + 4);
  cpu::ThreadContext ctx;
  ctx.regs = initial_regs(row);
  ctx.pc = kPc;
  core.set_context(ctx, 0);
  core.resume();
  while (!recorder.done && machine.now() < 10'000) machine.step();
  EXPECT_TRUE(recorder.done) << "the core never trapped after the row";

  Result out;
  out.regs = core.context().regs;
  out.next = recorder.next;
  out.mem0 = machine.memory().read_u32(kData);
  out.mem1 = machine.memory().read_u32(kData + 4);
  out.trap = recorder.trap;
  return out;
}

void expect_row(const Row& row, const Result& got) {
  EXPECT_EQ(static_cast<int>(got.trap), static_cast<int>(row.trap)) << "trap kind";
  Regs want = initial_regs(row);
  if (row.dest != 0) want[row.dest] = row.value;
  for (u8 r = 0; r < isa::kNumRegs; ++r) {
    EXPECT_EQ(got.regs[r], want[r]) << "r" << static_cast<int>(r);
  }
  if (row.trap == Trap::kNone) {
    EXPECT_EQ(got.next, row.next) << "successor PC";
  }
  EXPECT_EQ(got.mem0, row.mem0) << "word at kData";
  EXPECT_EQ(got.mem1, row.mem1) << "word at kData + 4";
}

class SemanticsTable : public ::testing::TestWithParam<Row> {};

TEST_P(SemanticsTable, EveryEngineMatchesTheRow) {
  const Row& row = GetParam();
  ASSERT_EQ(isa::decode(word_of(row.in)).op, row.in.op) << "row encodes a different op";
  {
    SCOPED_TRACE("isa::Interpreter");
    expect_row(row, run_interpreter(row));
  }
  {
    SCOPED_TRACE("exec::FastEngine, chaining on");
    expect_row(row, run_fast(row, /*chaining=*/true));
  }
  {
    SCOPED_TRACE("exec::FastEngine, chaining off");
    expect_row(row, run_fast(row, /*chaining=*/false));
  }
  {
    SCOPED_TRACE("cpu::Core");
    expect_row(row, run_core(row));
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, SemanticsTable, ::testing::ValuesIn(rows()),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

TEST(SemanticsCoverage, EveryOpHasARow) {
  for (int op = static_cast<int>(Op::kInvalid); op <= static_cast<int>(Op::kChk); ++op) {
    const bool covered = std::any_of(rows().begin(), rows().end(), [op](const Row& row) {
      return static_cast<int>(row.in.op) == op;
    });
    EXPECT_TRUE(covered) << "no row for Op #" << op;
  }
}

TEST(SemanticsHelpers, TargetsSizesAndExtension) {
  EXPECT_EQ(isa::branch_target(kPc, i_type(Op::kBne, kT1, kT0, -2)), 0x0040'00FCu);
  EXPECT_EQ(isa::branch_target(kPc, i_type(Op::kBeq, kT1, kT0, 0)), 0x0040'0104u);
  EXPECT_EQ(isa::jump_target(jump(Op::kJal, 0x0040'0200)), 0x0040'0200u);
  EXPECT_EQ(isa::access_size(Op::kLw), 4u);
  EXPECT_EQ(isa::access_size(Op::kSw), 4u);
  EXPECT_EQ(isa::access_size(Op::kLh), 2u);
  EXPECT_EQ(isa::access_size(Op::kLhu), 2u);
  EXPECT_EQ(isa::access_size(Op::kSh), 2u);
  EXPECT_EQ(isa::access_size(Op::kLb), 1u);
  EXPECT_EQ(isa::access_size(Op::kLbu), 1u);
  EXPECT_EQ(isa::access_size(Op::kSb), 1u);
  EXPECT_EQ(isa::access_size(Op::kAdd), 0u);
  EXPECT_EQ(isa::access_size(Op::kBeq), 0u);
  EXPECT_EQ(isa::effective_address(kData, i_type(Op::kLw, kT1, kT0, 7), 4), kData + 4);
  EXPECT_EQ(isa::effective_address(kData, i_type(Op::kLh, kT1, kT0, 7), 2), kData + 6);
  EXPECT_EQ(isa::effective_address(kData, i_type(Op::kLb, kT1, kT0, 7), 1), kData + 7);
  EXPECT_EQ(isa::load_extend(Op::kLb, 0x80), 0xFFFF'FF80u);
  EXPECT_EQ(isa::load_extend(Op::kLbu, 0x80), 0x0000'0080u);
  EXPECT_EQ(isa::load_extend(Op::kLh, 0x8000), 0xFFFF'8000u);
  EXPECT_EQ(isa::load_extend(Op::kLhu, 0x8000), 0x0000'8000u);
  EXPECT_EQ(isa::load_extend(Op::kLw, 0x8000'0000), 0x8000'0000u);
}

}  // namespace
}  // namespace rse
