#include "isa/instruction.hpp"

#include <cassert>
#include <sstream>

#include "common/bits.hpp"
#include "isa/semantics.hpp"

namespace rse::isa {
namespace {

// The table's code column reversed: the op each R-type function code, or
// each other primary opcode, selects; kInvalid where none does.
constexpr std::array<Op, 64> ops_by_code(bool r_type) {
  std::array<Op, 64> ops{};
  for (unsigned i = 1; i < kNumOps; ++i) {
    if (is_r_type(kOps[i].format) == r_type) ops[kOps[i].code] = static_cast<Op>(i);
  }
  return ops;
}
constexpr std::array<Op, 64> kByFunct = ops_by_code(true);
constexpr std::array<Op, 64> kByOpcode = ops_by_code(false);

}  // namespace

Instr decode(Word raw) {
  Instr in;
  in.raw = raw;
  const u32 opcode = bits(raw, 26, 6);
  if (opcode == 0) {  // R-type: the register fields decode even for an unknown funct
    in.op = kByFunct[bits(raw, 0, 6)];
    in.rs = static_cast<u8>(bits(raw, 21, 5));
    in.rt = static_cast<u8>(bits(raw, 16, 5));
    in.rd = static_cast<u8>(bits(raw, 11, 5));
    in.shamt = static_cast<u8>(bits(raw, 6, 5));
    return in;
  }
  in.op = kByOpcode[opcode];
  switch (op_info(in.op).format) {
    case Format::kUnknown:
      break;
    case Format::kJump:
    case Format::kCall:
      in.target = bits(raw, 0, 26);
      break;
    case Format::kChk:
      in.chk_module = static_cast<ModuleId>(bits(raw, 23, 3));
      in.chk_blocking = bits(raw, 22, 1) != 0;
      in.chk_op = static_cast<u8>(bits(raw, 17, 5));
      in.rs = static_cast<u8>(bits(raw, 12, 5));
      in.chk_imm = static_cast<u16>(bits(raw, 0, 12));
      break;
    default:  // I-type
      in.rs = static_cast<u8>(bits(raw, 21, 5));
      in.rt = static_cast<u8>(bits(raw, 16, 5));
      in.imm = sign_extend(bits(raw, 0, 16), 16);
      break;
  }
  return in;
}

Word encode(const Instr& in) {
  assert(in.op != Op::kInvalid);
  const OpInfo& row = op_info(in.op);
  Word raw = 0;
  switch (row.format) {
    case Format::kJump:
    case Format::kCall:
      raw = insert_bits(raw, 26, 6, row.code);
      return insert_bits(raw, 0, 26, in.target);
    case Format::kChk:
      raw = insert_bits(raw, 26, 6, row.code);
      raw = insert_bits(raw, 23, 3, static_cast<u32>(in.chk_module));
      raw = insert_bits(raw, 22, 1, in.chk_blocking ? 1u : 0u);
      raw = insert_bits(raw, 17, 5, in.chk_op);
      raw = insert_bits(raw, 12, 5, in.rs);
      return insert_bits(raw, 0, 12, in.chk_imm);
    default:
      break;
  }
  raw = insert_bits(raw, 21, 5, in.rs);
  raw = insert_bits(raw, 16, 5, in.rt);
  if (is_r_type(row.format)) {
    raw = insert_bits(raw, 11, 5, in.rd);
    raw = insert_bits(raw, 6, 5, in.shamt);
    return insert_bits(raw, 0, 6, row.code);
  }
  raw = insert_bits(raw, 26, 6, row.code);
  return insert_bits(raw, 0, 16, static_cast<u32>(in.imm) & 0xFFFFu);
}

std::string disassemble(const Instr& in) {
  if (in.op == Op::kSll && in.op_class() == OpClass::kNop) return "nop";
  const OpInfo& row = op_info(in.op);
  auto r = [](u8 reg) { return "r" + std::to_string(reg); };
  const i64 imm = row.imm == ImmKind::kZero ? static_cast<i64>(static_cast<u32>(in.imm) & 0xFFFFu)
                                            : static_cast<i64>(in.imm);
  std::ostringstream os;
  os << row.mnemonic;
  switch (row.format) {
    case Format::kNone:
      break;
    case Format::kUnknown:  // shows the word's R-type register fields
    case Format::kRdRsRt:
      os << " " << r(in.rd) << ", " << r(in.rs) << ", " << r(in.rt);
      break;
    case Format::kRdRtRs:
      os << " " << r(in.rd) << ", " << r(in.rt) << ", " << r(in.rs);
      break;
    case Format::kRdRtSa:
      os << " " << r(in.rd) << ", " << r(in.rt) << ", " << static_cast<int>(in.shamt);
      break;
    case Format::kRs:
      os << " " << r(in.rs);
      break;
    case Format::kRdRs:
      os << " " << r(in.rd) << ", " << r(in.rs);
      break;
    case Format::kRtRsImm:
      os << " " << r(in.rt) << ", " << r(in.rs) << ", " << imm;
      break;
    case Format::kRtImm:
      os << " " << r(in.rt) << ", " << imm;
      break;
    case Format::kLoad:
    case Format::kStore:
      os << " " << r(in.rt) << ", " << imm << "(" << r(in.rs) << ")";
      break;
    case Format::kBranch:
      os << " " << r(in.rs) << ", " << r(in.rt) << ", " << imm;
      break;
    case Format::kJump:
    case Format::kCall:
      os << " 0x" << std::hex << jump_target(in);
      break;
    case Format::kChk:
      os << " " << static_cast<int>(in.chk_module) << ", " << static_cast<int>(in.chk_op)
         << (in.chk_blocking ? ", blk, " : ", nblk, ") << r(in.rs) << ", " << in.chk_imm;
      break;
  }
  return os.str();
}

}  // namespace rse::isa
