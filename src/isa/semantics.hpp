// The guest ISA's architectural semantics, written once.
//
// `isa::execute` holds the only opcode switch for architectural effects.
// Every engine instantiates it over a small adapter that supplies register
// and memory access — the role SimpleScalar's per-simulator SET_GPR /
// READ_WORD macros play for its single machine.def — and keeps only what is
// its own: the interpreter its syscall callback, the out-of-order core its
// undo log and store-queue forwarding, the fast engine its direct-memory
// path and text invalidation.  tests/isa/semantics_test.cpp judges every
// engine against a hand-written per-opcode table, so this file is never its
// own oracle.
//
// An adapter `M` provides:
//   Word reg(u8 r)                      read a register
//   void write(u8 r, Word v)            write a register (never called for r0)
//   Word load(Addr ea, u32 size)        the `size` bytes at `ea`, zero-extended
//   void loaded(Word v)                 a load's extended value, before its
//                                       register write (called even for r0)
//   void store(Addr ea, u32 size, Word v)  store the low `size` bytes of v;
//                                       v is the full, unmasked rt
//   void chk()                          a CHK executed (an architectural NOP)
#pragma once

#include "common/bits.hpp"
#include "isa/instruction.hpp"

namespace rse::isa {

/// Target of a taken conditional branch at `pc` (PC-relative word offset).
constexpr Addr branch_target(Addr pc, const Instr& in) {
  return pc + 4 + (static_cast<Word>(in.imm) << 2);
}

/// Target of `j`/`jal` (absolute word target).
constexpr Addr jump_target(const Instr& in) { return in.target << 2; }

/// Bytes a load or store accesses; 0 for every other op.
constexpr u32 access_size(Op op) { return op_info(op).access_size; }

/// Address a `size`-byte access at `base + imm` touches.  Misaligned
/// addresses are truncated to the access's natural alignment, not trapped.
constexpr Addr effective_address(Word base, const Instr& in, u32 size) {
  return (base + static_cast<Word>(in.imm)) & ~(size - 1);
}

/// A load's register value from the bytes it read: `lb`/`lh` sign-extend,
/// the other loads zero-extend.
constexpr Word load_extend(Op op, Word raw) {
  if (op == Op::kLb) return static_cast<Word>(sign_extend(raw, 8));
  if (op == Op::kLh) return static_cast<Word>(sign_extend(raw, 16));
  return raw;
}

/// Truncating signed division.  Division by zero gives 0, and INT_MIN / -1
/// wraps to INT_MIN (the two's-complement result RISC-V specifies) instead
/// of trapping the host.
constexpr Word divide(Word a, Word b) {
  if (b == 0) return 0;
  if (b == ~0u) return 0u - a;
  return static_cast<Word>(static_cast<i32>(a) / static_cast<i32>(b));
}

/// Signed remainder, with the sign of the dividend.  x % 0 = 0, and
/// x % -1 = 0 (INT_MIN included).
constexpr Word remainder(Word a, Word b) {
  if (b == 0 || b == ~0u) return 0;
  return static_cast<Word>(static_cast<i32>(a) % static_cast<i32>(b));
}

/// Syscalls and illegal words have no effect here: the engine owns them.
enum class Trap : u8 { kNone, kSyscall, kIllegal };

/// How an instruction leaves the machine.
struct Step {
  Addr next = 0;            ///< architectural successor PC
  bool taken = false;       ///< a conditional branch was taken (next may be pc + 4)
  Trap trap = Trap::kNone;  ///< next is pc + 4, nothing else happened
};

namespace detail {

// The opcode is a template argument, so the access size and the extension
// fold at compile time: no second dispatch inside execute's switch.
template <Op kOp, class M>
void load(const Instr& in, Word base, M& m) {
  constexpr u32 size = access_size(kOp);
  const Word value = load_extend(kOp, m.load(effective_address(base, in, size), size));
  m.loaded(value);
  if (in.rt != 0) m.write(in.rt, value);
}

template <Op kOp, class M>
void store(const Instr& in, Word base, Word value, M& m) {
  constexpr u32 size = access_size(kOp);
  m.store(effective_address(base, in, size), size, value);
}

}  // namespace detail

/// Executes `in`, fetched at `pc`, against the adapter `m`.  Always inlined:
/// each engine's loop is built around this switch (the fast engine has two
/// loops, observed and unobserved, and the inliner would otherwise leave
/// both calling it out of line).
template <class M>
[[gnu::always_inline]] inline Step execute(const Instr& in, Addr pc, M& m) {
  const Word rs = m.reg(in.rs);
  const Word rt = m.reg(in.rt);
  const u32 uimm = static_cast<u32>(in.imm) & 0xFFFFu;
  Step step;
  step.next = pc + 4;
  auto set = [&m](u8 reg, Word value) {
    if (reg != 0) m.write(reg, value);
  };
  auto branch = [&](bool taken) {
    step.taken = taken;
    if (taken) step.next = branch_target(pc, in);
  };

  switch (in.op) {
    case Op::kInvalid: step.trap = Trap::kIllegal; break;
    case Op::kSyscall: step.trap = Trap::kSyscall; break;
    case Op::kChk: m.chk(); break;
    case Op::kSll: set(in.rd, rt << in.shamt); break;
    case Op::kSrl: set(in.rd, rt >> in.shamt); break;
    case Op::kSra: set(in.rd, static_cast<Word>(static_cast<i32>(rt) >> in.shamt)); break;
    case Op::kSllv: set(in.rd, rt << (rs & 31)); break;
    case Op::kSrlv: set(in.rd, rt >> (rs & 31)); break;
    case Op::kSrav: set(in.rd, static_cast<Word>(static_cast<i32>(rt) >> (rs & 31))); break;
    case Op::kAdd: set(in.rd, rs + rt); break;
    case Op::kSub: set(in.rd, rs - rt); break;
    case Op::kAnd: set(in.rd, rs & rt); break;
    case Op::kOr: set(in.rd, rs | rt); break;
    case Op::kXor: set(in.rd, rs ^ rt); break;
    case Op::kNor: set(in.rd, ~(rs | rt)); break;
    case Op::kSlt: set(in.rd, static_cast<i32>(rs) < static_cast<i32>(rt) ? 1 : 0); break;
    case Op::kSltu: set(in.rd, rs < rt ? 1 : 0); break;
    case Op::kMul: set(in.rd, rs * rt); break;
    case Op::kMulh:
      set(in.rd, static_cast<Word>((static_cast<i64>(static_cast<i32>(rs)) *
                                    static_cast<i64>(static_cast<i32>(rt))) >>
                                   32));
      break;
    case Op::kDiv: set(in.rd, divide(rs, rt)); break;
    case Op::kRem: set(in.rd, remainder(rs, rt)); break;
    case Op::kAddi: set(in.rt, rs + static_cast<Word>(in.imm)); break;
    case Op::kAndi: set(in.rt, rs & uimm); break;
    case Op::kOri: set(in.rt, rs | uimm); break;
    case Op::kXori: set(in.rt, rs ^ uimm); break;
    case Op::kSlti: set(in.rt, static_cast<i32>(rs) < in.imm ? 1 : 0); break;
    case Op::kSltiu: set(in.rt, rs < static_cast<Word>(in.imm) ? 1 : 0); break;
    case Op::kLui: set(in.rt, uimm << 16); break;
    case Op::kLw: detail::load<Op::kLw>(in, rs, m); break;
    case Op::kLh: detail::load<Op::kLh>(in, rs, m); break;
    case Op::kLhu: detail::load<Op::kLhu>(in, rs, m); break;
    case Op::kLb: detail::load<Op::kLb>(in, rs, m); break;
    case Op::kLbu: detail::load<Op::kLbu>(in, rs, m); break;
    case Op::kSw: detail::store<Op::kSw>(in, rs, rt, m); break;
    case Op::kSh: detail::store<Op::kSh>(in, rs, rt, m); break;
    case Op::kSb: detail::store<Op::kSb>(in, rs, rt, m); break;
    case Op::kBeq: branch(rs == rt); break;
    case Op::kBne: branch(rs != rt); break;
    case Op::kBlt: branch(static_cast<i32>(rs) < static_cast<i32>(rt)); break;
    case Op::kBge: branch(static_cast<i32>(rs) >= static_cast<i32>(rt)); break;
    case Op::kBltu: branch(rs < rt); break;
    case Op::kBgeu: branch(rs >= rt); break;
    case Op::kJ: step.next = jump_target(in); break;
    case Op::kJal:
      set(kRa, pc + 4);
      step.next = jump_target(in);
      break;
    case Op::kJr: step.next = rs; break;
    case Op::kJalr:
      set(in.rd, pc + 4);
      step.next = rs;
      break;
  }
  return step;
}

}  // namespace rse::isa
