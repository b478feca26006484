// Two-pass assembler for the guest ISA.
//
// Supported syntax (one statement per line, '#' or ';' comments):
//   label:
//   .text | .data            switch current segment
//   .align N                 align to 2^N bytes (data segment)
//   .word v, v, ...          32-bit values or label references
//   .byte v, v, ...
//   .space N                 N zero bytes
//   .entry label             program entry point (default: 'main', else text start)
//   <mnemonic> operands      machine instructions and pseudo-instructions
//
// Pseudo-instructions: li, la, move, b, beqz, bnez, nop, and the
// label-addressed memory forms "lw rt, label" / "sw rt, label" (expand via
// the assembler temporary register $at).
//
// Machine instructions take their operands in the order of their opcode
// table row's format (isa/instruction.hpp).  An immediate must fit its field:
// -32768..32767 where it is sign-extended, 0..65535 where it is zero-extended.
//
// CHK syntax:  chk <module>, <op#>, blk|nblk, <reg>, <imm12>
// where <module> is one of frame|icm|mlr|ddt|ahbm|cfc or a number 0..7.
#pragma once

#include <string>
#include <string_view>

#include "isa/program.hpp"

namespace rse::isa {

struct AssembleOptions {
  Addr text_base = kDefaultTextBase;
  Addr data_base = kDefaultDataBase;
};

/// Assemble `source`; throws AssemblyError with line information on failure.
Program assemble(std::string_view source, const AssembleOptions& options = {});

}  // namespace rse::isa
