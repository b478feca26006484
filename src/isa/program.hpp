// An assembled guest program image: text, data, entry point and symbols.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "isa/instruction.hpp"

namespace rse::isa {

/// Default segment placement (the loader may relocate the stack/heap bases,
/// which is exactly what the MLR module randomizes).
inline constexpr Addr kDefaultTextBase = 0x0040'0000;
inline constexpr Addr kDefaultDataBase = 0x1000'0000;
/// Where the loader maps shared libraries, unless MLR moves them; a data
/// segment below it must end by it.
inline constexpr Addr kDefaultShlibBase = 0x6000'0000;
// Kept 2 MB below 0x8000'0000 so MLR's randomization window (up to 1 MB
// upward) never pushes stack addresses across the signed-compare boundary.
inline constexpr Addr kDefaultStackTop = 0x7FE0'0000;

struct Program {
  Addr text_base = kDefaultTextBase;
  std::vector<Word> text;  // encoded instructions

  Addr data_base = kDefaultDataBase;
  std::vector<u8> data;

  Addr entry = kDefaultTextBase;

  /// Label -> absolute address (text labels and data labels alike).
  std::map<std::string, Addr> symbols;

  Addr text_end() const { return text_base + static_cast<Addr>(text.size() * 4); }
  Addr data_end() const { return data_base + static_cast<Addr>(data.size()); }

  /// Address of a required symbol; throws AssemblyError if missing.
  Addr symbol(const std::string& name) const;

  /// Instruction word at an absolute text address.
  Word text_word(Addr addr) const;
};

}  // namespace rse::isa
