// Instruction set of the simulated 32-bit RISC core (MIPS/DLX-like, as used
// by the paper's SimpleScalar substrate), including the CHECK ("CHK") ISA
// extension of RSE section 3.3.
//
// Encoding (32-bit, big-field layout):
//   R-type: [31:26]=0      [25:21]=rs [20:16]=rt [15:11]=rd [10:6]=shamt [5:0]=funct
//   I-type: [31:26]=opcode [25:21]=rs [20:16]=rt [15:0]=imm16 (sign-extended)
//   J-type: [31:26]=opcode [25:0]=word target
//   CHK   : [31:26]=0x3E   [25:23]=module# [22]=BLK [21:17]=operation
//           [16:12]=rs (parameter register) [11:0]=imm12 (config/options)
//
// The CHK parameter travels in a register so that the RSE picks it up from
// the Regfile_Data input queue, exactly as the framework's input interface
// is described in section 3.1.
//
// Every per-opcode fact except the semantics (isa::execute, semantics.hpp)
// is written once, in the opcode table kOps below: one row per Op, as
// SimpleScalar's machine.def holds one DEFINST row per instruction.  Decode,
// encode, disassembly, the assembler and the pipeline's class, source and
// destination queries all read it.
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.hpp"

namespace rse::isa {

inline constexpr unsigned kNumRegs = 32;

/// Register aliases following the MIPS convention used by guest code.
enum Reg : u8 {
  kZero = 0,  // hard-wired zero
  kAt = 1,    // assembler temporary
  kV0 = 2,    // return value / syscall number
  kV1 = 3,
  kA0 = 4,  // arguments
  kA1 = 5,
  kA2 = 6,
  kA3 = 7,
  kT0 = 8,  // caller-saved temporaries t0..t7 = r8..r15
  kS0 = 16,  // callee-saved s0..s7 = r16..r23
  kT8 = 24,
  kT9 = 25,
  kGp = 28,
  kSp = 29,
  kFp = 30,
  kRa = 31,
};

/// Decoded operation.
enum class Op : u8 {
  kInvalid,
  // R-type ALU
  kSll,
  kSrl,
  kSra,
  kSllv,
  kSrlv,
  kSrav,
  kAdd,
  kSub,
  kAnd,
  kOr,
  kXor,
  kNor,
  kSlt,
  kSltu,
  kMul,
  kMulh,
  kDiv,
  kRem,
  kJr,
  kJalr,
  kSyscall,
  // I-type ALU
  kAddi,
  kAndi,
  kOri,
  kXori,
  kSlti,
  kSltiu,
  kLui,
  // memory
  kLw,
  kLb,
  kLbu,
  kLh,
  kLhu,
  kSw,
  kSb,
  kSh,
  // control
  kBeq,
  kBne,
  kBlt,
  kBge,
  kBltu,
  kBgeu,
  kJ,
  kJal,
  // RSE extension (the last op)
  kChk,
};
inline constexpr unsigned kNumOps = static_cast<unsigned>(Op::kChk) + 1;

/// Coarse class used by the pipeline to route an instruction to a
/// functional unit and by the RSE to recognize memory/control instructions.
enum class OpClass : u8 {
  kNop,      // architectural no-op (sll r0,r0,0)
  kIntAlu,   // single-cycle integer unit
  kIntMul,   // multiply/divide unit
  kLoad,     // load/store unit, reads memory
  kStore,    // load/store unit, writes memory
  kBranch,   // conditional branch
  kJump,     // unconditional jump / call / return
  kSyscall,  // serializing OS trap
  kChk,      // RSE CHECK instruction (NOP in the pipeline except at commit)
};

/// RSE module selector carried in the CHK module# field (section 3.3).
enum class ModuleId : u8 {
  kFramework = 0,  // enable/disable and framework-level controls
  kIcm = 1,
  kMlr = 2,
  kDdt = 3,
  kAhbm = 4,
  kCfc = 5,  // control-flow checker (extensibility demonstration)
};
inline constexpr unsigned kNumModuleIds = 6;

/// Operand layout: the order in which the assembler reads and the
/// disassembler prints an instruction's operands, and which registers it
/// reads and writes.
enum class Format : u8 {
  kUnknown,  // an unassigned encoding (Op::kInvalid)
  kNone,     // no operands
  kRdRsRt,   // rd, rs, rt
  kRdRtRs,   // rd, rt, rs       shift rt by rs
  kRdRtSa,   // rd, rt, shamt
  kRs,       // rs
  kRdRs,     // [rd,] rs         rd defaults to ra
  kRtRsImm,  // rt, rs, imm
  kRtImm,    // rt, imm
  kLoad,     // rt, imm(rs)      writes rt
  kStore,    // rt, imm(rs)      reads rt
  kBranch,   // rs, rt, label
  kJump,     // label
  kCall,     // label            writes ra
  kChk,      // module, op, blk|nblk, rs, imm12
};

/// R-type formats share primary opcode 0; their function code names the op.
constexpr bool is_r_type(Format f) {
  return f == Format::kNone || f == Format::kRdRsRt || f == Format::kRdRtRs ||
         f == Format::kRdRtSa || f == Format::kRs || f == Format::kRdRs;
}

/// How an instruction's 16-bit immediate or offset field reaches 32 bits,
/// which also bounds the values the assembler accepts for it.
enum class ImmKind : u8 {
  kNone,
  kSigned,  // sign-extended: -32768..32767
  kZero,    // zero-extended: 0..65535
};

/// One row of the opcode table.
struct OpInfo {
  std::string_view mnemonic;
  Format format;
  OpClass op_class;
  u8 code;  // primary opcode; the function code for R-type formats
  ImmKind imm;
  u8 access_size;  // bytes a load or store accesses; 0 for every other op
};

/// The opcode table, one row per Op in enum order.
inline constexpr auto kOps = std::to_array<OpInfo>({
    // mnemonic   format            class              code  immediate         size
    {"<invalid>", Format::kUnknown, OpClass::kNop,     0x00, ImmKind::kNone,   0},
    {"sll",       Format::kRdRtSa,  OpClass::kIntAlu,  0x00, ImmKind::kNone,   0},
    {"srl",       Format::kRdRtSa,  OpClass::kIntAlu,  0x02, ImmKind::kNone,   0},
    {"sra",       Format::kRdRtSa,  OpClass::kIntAlu,  0x03, ImmKind::kNone,   0},
    {"sllv",      Format::kRdRtRs,  OpClass::kIntAlu,  0x04, ImmKind::kNone,   0},
    {"srlv",      Format::kRdRtRs,  OpClass::kIntAlu,  0x06, ImmKind::kNone,   0},
    {"srav",      Format::kRdRtRs,  OpClass::kIntAlu,  0x07, ImmKind::kNone,   0},
    {"add",       Format::kRdRsRt,  OpClass::kIntAlu,  0x20, ImmKind::kNone,   0},
    {"sub",       Format::kRdRsRt,  OpClass::kIntAlu,  0x22, ImmKind::kNone,   0},
    {"and",       Format::kRdRsRt,  OpClass::kIntAlu,  0x24, ImmKind::kNone,   0},
    {"or",        Format::kRdRsRt,  OpClass::kIntAlu,  0x25, ImmKind::kNone,   0},
    {"xor",       Format::kRdRsRt,  OpClass::kIntAlu,  0x26, ImmKind::kNone,   0},
    {"nor",       Format::kRdRsRt,  OpClass::kIntAlu,  0x27, ImmKind::kNone,   0},
    {"slt",       Format::kRdRsRt,  OpClass::kIntAlu,  0x2A, ImmKind::kNone,   0},
    {"sltu",      Format::kRdRsRt,  OpClass::kIntAlu,  0x2B, ImmKind::kNone,   0},
    {"mul",       Format::kRdRsRt,  OpClass::kIntMul,  0x18, ImmKind::kNone,   0},
    {"mulh",      Format::kRdRsRt,  OpClass::kIntMul,  0x19, ImmKind::kNone,   0},
    {"div",       Format::kRdRsRt,  OpClass::kIntMul,  0x1A, ImmKind::kNone,   0},
    {"rem",       Format::kRdRsRt,  OpClass::kIntMul,  0x1B, ImmKind::kNone,   0},
    {"jr",        Format::kRs,      OpClass::kJump,    0x08, ImmKind::kNone,   0},
    {"jalr",      Format::kRdRs,    OpClass::kJump,    0x09, ImmKind::kNone,   0},
    {"syscall",   Format::kNone,    OpClass::kSyscall, 0x0C, ImmKind::kNone,   0},
    {"addi",      Format::kRtRsImm, OpClass::kIntAlu,  0x08, ImmKind::kSigned, 0},
    {"andi",      Format::kRtRsImm, OpClass::kIntAlu,  0x0C, ImmKind::kZero,   0},
    {"ori",       Format::kRtRsImm, OpClass::kIntAlu,  0x0D, ImmKind::kZero,   0},
    {"xori",      Format::kRtRsImm, OpClass::kIntAlu,  0x0E, ImmKind::kZero,   0},
    {"slti",      Format::kRtRsImm, OpClass::kIntAlu,  0x0A, ImmKind::kSigned, 0},
    {"sltiu",     Format::kRtRsImm, OpClass::kIntAlu,  0x0B, ImmKind::kSigned, 0},
    {"lui",       Format::kRtImm,   OpClass::kIntAlu,  0x0F, ImmKind::kZero,   0},
    {"lw",        Format::kLoad,    OpClass::kLoad,    0x23, ImmKind::kSigned, 4},
    {"lb",        Format::kLoad,    OpClass::kLoad,    0x20, ImmKind::kSigned, 1},
    {"lbu",       Format::kLoad,    OpClass::kLoad,    0x24, ImmKind::kSigned, 1},
    {"lh",        Format::kLoad,    OpClass::kLoad,    0x21, ImmKind::kSigned, 2},
    {"lhu",       Format::kLoad,    OpClass::kLoad,    0x25, ImmKind::kSigned, 2},
    {"sw",        Format::kStore,   OpClass::kStore,   0x2B, ImmKind::kSigned, 4},
    {"sb",        Format::kStore,   OpClass::kStore,   0x28, ImmKind::kSigned, 1},
    {"sh",        Format::kStore,   OpClass::kStore,   0x29, ImmKind::kSigned, 2},
    {"beq",       Format::kBranch,  OpClass::kBranch,  0x04, ImmKind::kSigned, 0},
    {"bne",       Format::kBranch,  OpClass::kBranch,  0x05, ImmKind::kSigned, 0},
    {"blt",       Format::kBranch,  OpClass::kBranch,  0x06, ImmKind::kSigned, 0},
    {"bge",       Format::kBranch,  OpClass::kBranch,  0x07, ImmKind::kSigned, 0},
    {"bltu",      Format::kBranch,  OpClass::kBranch,  0x10, ImmKind::kSigned, 0},
    {"bgeu",      Format::kBranch,  OpClass::kBranch,  0x11, ImmKind::kSigned, 0},
    {"j",         Format::kJump,    OpClass::kJump,    0x02, ImmKind::kNone,   0},
    {"jal",       Format::kCall,    OpClass::kJump,    0x03, ImmKind::kNone,   0},
    {"chk",       Format::kChk,     OpClass::kChk,     0x3E, ImmKind::kNone,   0},
});
static_assert(kOps.size() == kNumOps, "one opcode table row per Op");

constexpr const OpInfo& op_info(Op op) { return kOps[static_cast<u8>(op)]; }

/// The op spelled `mnemonic`, or kInvalid when no instruction is (the
/// assembler's pseudo-instructions and directives included).
constexpr Op op_named(std::string_view mnemonic) {
  for (unsigned i = 1; i < kNumOps; ++i) {
    if (kOps[i].mnemonic == mnemonic) return static_cast<Op>(i);
  }
  return Op::kInvalid;
}

/// Fully decoded instruction.  The raw encoding is kept because the ICM
/// compares instruction binaries bit-for-bit.
struct Instr {
  Word raw = 0;
  Op op = Op::kInvalid;
  u8 rd = 0;
  u8 rs = 0;
  u8 rt = 0;
  u8 shamt = 0;
  u8 spare0[3] = {};  // the spares name the padding: always 0
  i32 imm = 0;     // sign-extended I-type immediate
  u32 target = 0;  // J-type word target

  // CHK fields (valid when op == kChk)
  ModuleId chk_module = ModuleId::kFramework;
  bool chk_blocking = false;
  u8 chk_op = 0;     // module-specific operation selector (5 bits)
  u8 spare1 = 0;
  u16 chk_imm = 0;   // config options (12 bits)
  u16 spare2 = 0;

  OpClass op_class() const {
    if (op == Op::kSll && rd == 0 && rt == 0 && shamt == 0) return OpClass::kNop;
    return op_info(op).op_class;
  }

  /// Destination register written by this instruction, or nullopt.
  std::optional<u8> dest_reg() const {
    u8 reg = 0;
    switch (op_info(op).format) {
      case Format::kRdRsRt:
      case Format::kRdRtRs:
      case Format::kRdRtSa:
      case Format::kRdRs:
        reg = rd;
        break;
      case Format::kRtRsImm:
      case Format::kRtImm:
      case Format::kLoad:
        reg = rt;
        break;
      case Format::kCall:
        reg = kRa;
        break;
      default:
        break;
    }
    return reg == 0 ? std::nullopt : std::optional<u8>(reg);
  }

  /// Source registers read (0, 1, or 2 entries; r0 reads are included).
  struct Sources {
    u8 count = 0;
    u8 regs[2] = {0, 0};
  };
  Sources source_regs() const {
    switch (op_info(op).format) {
      case Format::kRdRsRt:
      case Format::kRdRtRs:
      case Format::kStore:
      case Format::kBranch:
        return {2, {rs, rt}};
      case Format::kRdRtSa:
        return {1, {rt, 0}};
      case Format::kRs:
      case Format::kRdRs:
      case Format::kRtRsImm:
      case Format::kLoad:
      case Format::kChk:  // the CHK parameter register
        return {1, {rs, 0}};
      // syscall reads v0/a0..a3 but is serializing; model no renaming sources
      default:
        return {};
    }
  }

  bool is_control() const {
    const OpClass c = op_class();
    return c == OpClass::kBranch || c == OpClass::kJump;
  }
  bool is_mem() const {
    const OpClass c = op_class();
    return c == OpClass::kLoad || c == OpClass::kStore;
  }
};

/// Decode a raw 32-bit word.  Returns op == kInvalid for unknown encodings
/// (which the pipeline turns into an illegal-instruction trap).
Instr decode(Word raw);

/// Encode a decoded instruction back to its raw form (used by the assembler
/// and by fault-injection tests).  Precondition: op != kInvalid.
Word encode(const Instr& instr);

/// Human-readable disassembly with operands in the assembler's order, e.g.
/// "add r3, r1, r2"; a branch shows its word offset rather than a label.
std::string disassemble(const Instr& instr);

/// Canonical NOP encoding (sll r0, r0, 0).
inline constexpr Word kNopEncoding = 0;

}  // namespace rse::isa
