#include "isa/instruction.hpp"

#include <array>
#include <cassert>
#include <sstream>

#include "common/bits.hpp"
#include "isa/semantics.hpp"

namespace rse::isa {
namespace {

// Primary opcodes.
constexpr u32 kOpcR = 0x00;
constexpr u32 kOpcJ = 0x02;
constexpr u32 kOpcJal = 0x03;
constexpr u32 kOpcBeq = 0x04;
constexpr u32 kOpcBne = 0x05;
constexpr u32 kOpcBlt = 0x06;
constexpr u32 kOpcBge = 0x07;
constexpr u32 kOpcAddi = 0x08;
constexpr u32 kOpcSlti = 0x0A;
constexpr u32 kOpcSltiu = 0x0B;
constexpr u32 kOpcAndi = 0x0C;
constexpr u32 kOpcOri = 0x0D;
constexpr u32 kOpcXori = 0x0E;
constexpr u32 kOpcLui = 0x0F;
constexpr u32 kOpcBltu = 0x10;
constexpr u32 kOpcBgeu = 0x11;
constexpr u32 kOpcLb = 0x20;
constexpr u32 kOpcLh = 0x21;
constexpr u32 kOpcLw = 0x23;
constexpr u32 kOpcLbu = 0x24;
constexpr u32 kOpcLhu = 0x25;
constexpr u32 kOpcSb = 0x28;
constexpr u32 kOpcSh = 0x29;
constexpr u32 kOpcSw = 0x2B;
constexpr u32 kOpcChk = 0x3E;

// R-type function codes.
constexpr u32 kFnSll = 0x00;
constexpr u32 kFnSrl = 0x02;
constexpr u32 kFnSra = 0x03;
constexpr u32 kFnSllv = 0x04;
constexpr u32 kFnSrlv = 0x06;
constexpr u32 kFnSrav = 0x07;
constexpr u32 kFnJr = 0x08;
constexpr u32 kFnJalr = 0x09;
constexpr u32 kFnSyscall = 0x0C;
constexpr u32 kFnMul = 0x18;
constexpr u32 kFnMulh = 0x19;
constexpr u32 kFnDiv = 0x1A;
constexpr u32 kFnRem = 0x1B;
constexpr u32 kFnAdd = 0x20;
constexpr u32 kFnSub = 0x22;
constexpr u32 kFnAnd = 0x24;
constexpr u32 kFnOr = 0x25;
constexpr u32 kFnXor = 0x26;
constexpr u32 kFnNor = 0x27;
constexpr u32 kFnSlt = 0x2A;
constexpr u32 kFnSltu = 0x2B;

Op r_type_op(u32 funct) {
  switch (funct) {
    case kFnSll: return Op::kSll;
    case kFnSrl: return Op::kSrl;
    case kFnSra: return Op::kSra;
    case kFnSllv: return Op::kSllv;
    case kFnSrlv: return Op::kSrlv;
    case kFnSrav: return Op::kSrav;
    case kFnJr: return Op::kJr;
    case kFnJalr: return Op::kJalr;
    case kFnSyscall: return Op::kSyscall;
    case kFnMul: return Op::kMul;
    case kFnMulh: return Op::kMulh;
    case kFnDiv: return Op::kDiv;
    case kFnRem: return Op::kRem;
    case kFnAdd: return Op::kAdd;
    case kFnSub: return Op::kSub;
    case kFnAnd: return Op::kAnd;
    case kFnOr: return Op::kOr;
    case kFnXor: return Op::kXor;
    case kFnNor: return Op::kNor;
    case kFnSlt: return Op::kSlt;
    case kFnSltu: return Op::kSltu;
    default: return Op::kInvalid;
  }
}

u32 r_type_funct(Op op) {
  switch (op) {
    case Op::kSll: return kFnSll;
    case Op::kSrl: return kFnSrl;
    case Op::kSra: return kFnSra;
    case Op::kSllv: return kFnSllv;
    case Op::kSrlv: return kFnSrlv;
    case Op::kSrav: return kFnSrav;
    case Op::kJr: return kFnJr;
    case Op::kJalr: return kFnJalr;
    case Op::kSyscall: return kFnSyscall;
    case Op::kMul: return kFnMul;
    case Op::kMulh: return kFnMulh;
    case Op::kDiv: return kFnDiv;
    case Op::kRem: return kFnRem;
    case Op::kAdd: return kFnAdd;
    case Op::kSub: return kFnSub;
    case Op::kAnd: return kFnAnd;
    case Op::kOr: return kFnOr;
    case Op::kXor: return kFnXor;
    case Op::kNor: return kFnNor;
    case Op::kSlt: return kFnSlt;
    case Op::kSltu: return kFnSltu;
    default: assert(false && "not an R-type op"); return 0;
  }
}

Op i_type_op(u32 opcode) {
  switch (opcode) {
    case kOpcBeq: return Op::kBeq;
    case kOpcBne: return Op::kBne;
    case kOpcBlt: return Op::kBlt;
    case kOpcBge: return Op::kBge;
    case kOpcBltu: return Op::kBltu;
    case kOpcBgeu: return Op::kBgeu;
    case kOpcAddi: return Op::kAddi;
    case kOpcSlti: return Op::kSlti;
    case kOpcSltiu: return Op::kSltiu;
    case kOpcAndi: return Op::kAndi;
    case kOpcOri: return Op::kOri;
    case kOpcXori: return Op::kXori;
    case kOpcLui: return Op::kLui;
    case kOpcLb: return Op::kLb;
    case kOpcLh: return Op::kLh;
    case kOpcLw: return Op::kLw;
    case kOpcLbu: return Op::kLbu;
    case kOpcLhu: return Op::kLhu;
    case kOpcSb: return Op::kSb;
    case kOpcSh: return Op::kSh;
    case kOpcSw: return Op::kSw;
    default: return Op::kInvalid;
  }
}

u32 i_type_opcode(Op op) {
  switch (op) {
    case Op::kBeq: return kOpcBeq;
    case Op::kBne: return kOpcBne;
    case Op::kBlt: return kOpcBlt;
    case Op::kBge: return kOpcBge;
    case Op::kBltu: return kOpcBltu;
    case Op::kBgeu: return kOpcBgeu;
    case Op::kAddi: return kOpcAddi;
    case Op::kSlti: return kOpcSlti;
    case Op::kSltiu: return kOpcSltiu;
    case Op::kAndi: return kOpcAndi;
    case Op::kOri: return kOpcOri;
    case Op::kXori: return kOpcXori;
    case Op::kLui: return kOpcLui;
    case Op::kLb: return kOpcLb;
    case Op::kLh: return kOpcLh;
    case Op::kLw: return kOpcLw;
    case Op::kLbu: return kOpcLbu;
    case Op::kLhu: return kOpcLhu;
    case Op::kSb: return kOpcSb;
    case Op::kSh: return kOpcSh;
    case Op::kSw: return kOpcSw;
    default: assert(false && "not an I-type op"); return 0;
  }
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kInvalid: return "<invalid>";
    case Op::kSll: return "sll";
    case Op::kSrl: return "srl";
    case Op::kSra: return "sra";
    case Op::kSllv: return "sllv";
    case Op::kSrlv: return "srlv";
    case Op::kSrav: return "srav";
    case Op::kAdd: return "add";
    case Op::kSub: return "sub";
    case Op::kAnd: return "and";
    case Op::kOr: return "or";
    case Op::kXor: return "xor";
    case Op::kNor: return "nor";
    case Op::kSlt: return "slt";
    case Op::kSltu: return "sltu";
    case Op::kMul: return "mul";
    case Op::kMulh: return "mulh";
    case Op::kDiv: return "div";
    case Op::kRem: return "rem";
    case Op::kJr: return "jr";
    case Op::kJalr: return "jalr";
    case Op::kSyscall: return "syscall";
    case Op::kAddi: return "addi";
    case Op::kAndi: return "andi";
    case Op::kOri: return "ori";
    case Op::kXori: return "xori";
    case Op::kSlti: return "slti";
    case Op::kSltiu: return "sltiu";
    case Op::kLui: return "lui";
    case Op::kLw: return "lw";
    case Op::kLb: return "lb";
    case Op::kLbu: return "lbu";
    case Op::kLh: return "lh";
    case Op::kLhu: return "lhu";
    case Op::kSw: return "sw";
    case Op::kSb: return "sb";
    case Op::kSh: return "sh";
    case Op::kBeq: return "beq";
    case Op::kBne: return "bne";
    case Op::kBlt: return "blt";
    case Op::kBge: return "bge";
    case Op::kBltu: return "bltu";
    case Op::kBgeu: return "bgeu";
    case Op::kJ: return "j";
    case Op::kJal: return "jal";
    case Op::kChk: return "chk";
  }
  return "<bad>";
}

}  // namespace

OpClass Instr::op_class() const {
  switch (op) {
    case Op::kSll:
      if (rd == 0 && rt == 0 && shamt == 0) return OpClass::kNop;
      return OpClass::kIntAlu;
    case Op::kSrl:
    case Op::kSra:
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kAdd:
    case Op::kSub:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kAddi:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kLui:
      return OpClass::kIntAlu;
    case Op::kMul:
    case Op::kMulh:
    case Op::kDiv:
    case Op::kRem:
      return OpClass::kIntMul;
    case Op::kLw:
    case Op::kLb:
    case Op::kLbu:
    case Op::kLh:
    case Op::kLhu:
      return OpClass::kLoad;
    case Op::kSw:
    case Op::kSb:
    case Op::kSh:
      return OpClass::kStore;
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      return OpClass::kBranch;
    case Op::kJ:
    case Op::kJal:
    case Op::kJr:
    case Op::kJalr:
      return OpClass::kJump;
    case Op::kSyscall:
      return OpClass::kSyscall;
    case Op::kChk:
      return OpClass::kChk;
    case Op::kInvalid:
      return OpClass::kNop;
  }
  return OpClass::kNop;
}

std::optional<u8> Instr::dest_reg() const {
  switch (op) {
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kAdd:
    case Op::kSub:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kMul:
    case Op::kMulh:
    case Op::kDiv:
    case Op::kRem:
    case Op::kJalr:
      return rd == 0 ? std::nullopt : std::optional<u8>(rd);
    case Op::kAddi:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kLui:
    case Op::kLw:
    case Op::kLb:
    case Op::kLbu:
    case Op::kLh:
    case Op::kLhu:
      return rt == 0 ? std::nullopt : std::optional<u8>(rt);
    case Op::kJal:
      return std::optional<u8>(kRa);
    default:
      return std::nullopt;
  }
}

Instr::Sources Instr::source_regs() const {
  Sources s;
  auto add = [&s](u8 r) { s.regs[s.count++] = r; };
  switch (op) {
    // shift-by-immediate reads rt only
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
      add(rt);
      break;
    // two-source R-type
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kAdd:
    case Op::kSub:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kMul:
    case Op::kMulh:
    case Op::kDiv:
    case Op::kRem:
      add(rs);
      add(rt);
      break;
    case Op::kJr:
    case Op::kJalr:
      add(rs);
      break;
    // I-type ALU reads rs
    case Op::kAddi:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
    case Op::kSlti:
    case Op::kSltiu:
      add(rs);
      break;
    case Op::kLui:
      break;
    // loads read the base; stores read base + value
    case Op::kLw:
    case Op::kLb:
    case Op::kLbu:
    case Op::kLh:
    case Op::kLhu:
      add(rs);
      break;
    case Op::kSw:
    case Op::kSb:
    case Op::kSh:
      add(rs);
      add(rt);
      break;
    // branches compare rs, rt
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu:
      add(rs);
      add(rt);
      break;
    case Op::kChk:
      add(rs);  // the CHK parameter register
      break;
    // syscall reads v0/a0..a3 but is serializing; model no renaming sources
    default:
      break;
  }
  return s;
}

Instr decode(Word raw) {
  Instr in;
  in.raw = raw;
  const u32 opcode = bits(raw, 26, 6);
  if (opcode == kOpcR) {
    in.op = r_type_op(bits(raw, 0, 6));
    in.rs = static_cast<u8>(bits(raw, 21, 5));
    in.rt = static_cast<u8>(bits(raw, 16, 5));
    in.rd = static_cast<u8>(bits(raw, 11, 5));
    in.shamt = static_cast<u8>(bits(raw, 6, 5));
    return in;
  }
  if (opcode == kOpcJ || opcode == kOpcJal) {
    in.op = opcode == kOpcJ ? Op::kJ : Op::kJal;
    in.target = bits(raw, 0, 26);
    return in;
  }
  if (opcode == kOpcChk) {
    in.op = Op::kChk;
    const u32 mod = bits(raw, 23, 3);
    in.chk_module = static_cast<ModuleId>(mod);
    in.chk_blocking = bits(raw, 22, 1) != 0;
    in.chk_op = static_cast<u8>(bits(raw, 17, 5));
    in.rs = static_cast<u8>(bits(raw, 12, 5));
    in.chk_imm = static_cast<u16>(bits(raw, 0, 12));
    return in;
  }
  in.op = i_type_op(opcode);
  if (in.op == Op::kInvalid) return in;
  in.rs = static_cast<u8>(bits(raw, 21, 5));
  in.rt = static_cast<u8>(bits(raw, 16, 5));
  in.imm = sign_extend(bits(raw, 0, 16), 16);
  return in;
}

Word encode(const Instr& instr) {
  assert(instr.op != Op::kInvalid);
  switch (instr.op_class()) {
    case OpClass::kChk: {
      Word raw = 0;
      raw = insert_bits(raw, 26, 6, kOpcChk);
      raw = insert_bits(raw, 23, 3, static_cast<u32>(instr.chk_module));
      raw = insert_bits(raw, 22, 1, instr.chk_blocking ? 1u : 0u);
      raw = insert_bits(raw, 17, 5, instr.chk_op);
      raw = insert_bits(raw, 12, 5, instr.rs);
      raw = insert_bits(raw, 0, 12, instr.chk_imm);
      return raw;
    }
    default:
      break;
  }
  switch (instr.op) {
    case Op::kJ:
    case Op::kJal: {
      Word raw = 0;
      raw = insert_bits(raw, 26, 6, instr.op == Op::kJ ? kOpcJ : kOpcJal);
      raw = insert_bits(raw, 0, 26, instr.target);
      return raw;
    }
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kAdd:
    case Op::kSub:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kMul:
    case Op::kMulh:
    case Op::kDiv:
    case Op::kRem:
    case Op::kJr:
    case Op::kJalr:
    case Op::kSyscall: {
      Word raw = 0;
      raw = insert_bits(raw, 21, 5, instr.rs);
      raw = insert_bits(raw, 16, 5, instr.rt);
      raw = insert_bits(raw, 11, 5, instr.rd);
      raw = insert_bits(raw, 6, 5, instr.shamt);
      raw = insert_bits(raw, 0, 6, r_type_funct(instr.op));
      return raw;
    }
    default: {
      Word raw = 0;
      raw = insert_bits(raw, 26, 6, i_type_opcode(instr.op));
      raw = insert_bits(raw, 21, 5, instr.rs);
      raw = insert_bits(raw, 16, 5, instr.rt);
      raw = insert_bits(raw, 0, 16, static_cast<u32>(instr.imm) & 0xFFFFu);
      return raw;
    }
  }
}

std::string disassemble(const Instr& in) {
  std::ostringstream os;
  auto r = [](u8 reg) { return "r" + std::to_string(reg); };
  if (in.op_class() == OpClass::kNop && in.op == Op::kSll) return "nop";
  os << op_name(in.op);
  switch (in.op_class()) {
    case OpClass::kChk:
      os << " m" << static_cast<int>(in.chk_module) << (in.chk_blocking ? ", blk" : ", nblk")
         << ", op" << static_cast<int>(in.chk_op) << ", " << r(in.rs) << ", " << in.chk_imm;
      break;
    case OpClass::kJump:
      if (in.op == Op::kJ || in.op == Op::kJal) {
        os << " 0x" << std::hex << jump_target(in);
      } else if (in.op == Op::kJr) {
        os << " " << r(in.rs);
      } else {
        os << " " << r(in.rd) << ", " << r(in.rs);
      }
      break;
    case OpClass::kBranch:
      os << " " << r(in.rs) << ", " << r(in.rt) << ", " << in.imm;
      break;
    case OpClass::kLoad:
      os << " " << r(in.rt) << ", " << in.imm << "(" << r(in.rs) << ")";
      break;
    case OpClass::kStore:
      os << " " << r(in.rt) << ", " << in.imm << "(" << r(in.rs) << ")";
      break;
    case OpClass::kSyscall:
      break;
    default:
      switch (in.op) {
        case Op::kSll:
        case Op::kSrl:
        case Op::kSra:
          os << " " << r(in.rd) << ", " << r(in.rt) << ", " << static_cast<int>(in.shamt);
          break;
        case Op::kLui:
          os << " " << r(in.rt) << ", " << (static_cast<u32>(in.imm) & 0xFFFFu);
          break;
        case Op::kAddi:
        case Op::kAndi:
        case Op::kOri:
        case Op::kXori:
        case Op::kSlti:
        case Op::kSltiu:
          os << " " << r(in.rt) << ", " << r(in.rs) << ", " << in.imm;
          break;
        default:
          os << " " << r(in.rd) << ", " << r(in.rs) << ", " << r(in.rt);
          break;
      }
      break;
  }
  return os.str();
}

}  // namespace rse::isa
