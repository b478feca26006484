#include "isa/assembler.hpp"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <optional>
#include <sstream>
#include <vector>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace rse::isa {
namespace {

/// Split a statement into mnemonic + comma-separated operand strings.
struct Statement {
  std::string mnemonic;
  std::vector<std::string> operands;
};

std::string trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::optional<u8> parse_reg(const std::string& raw) {
  std::string t = lower(trim(raw));
  if (!t.empty() && t[0] == '$') t = t.substr(1);
  if (t.empty()) return std::nullopt;
  auto num = [&t](std::size_t from) -> std::optional<unsigned> {
    if (from >= t.size()) return std::nullopt;
    unsigned v = 0;
    for (std::size_t i = from; i < t.size(); ++i) {
      if (!std::isdigit(static_cast<unsigned char>(t[i]))) return std::nullopt;
      v = v * 10 + static_cast<unsigned>(t[i] - '0');
    }
    return v;
  };
  if (t[0] == 'r') {
    if (auto v = num(1); v && *v < kNumRegs) return static_cast<u8>(*v);
  }
  if (t == "zero") return 0;
  if (t == "at") return kAt;
  if (t == "gp") return kGp;
  if (t == "sp") return kSp;
  if (t == "fp") return kFp;
  if (t == "ra") return kRa;
  if (t[0] == 'v') {
    if (auto v = num(1); v && *v < 2) return static_cast<u8>(kV0 + *v);
  }
  if (t[0] == 'a') {
    if (auto v = num(1); v && *v < 4) return static_cast<u8>(kA0 + *v);
  }
  if (t[0] == 't') {
    if (auto v = num(1)) {
      if (*v < 8) return static_cast<u8>(kT0 + *v);
      if (*v == 8 || *v == 9) return static_cast<u8>(kT8 + (*v - 8));
    }
  }
  if (t[0] == 's') {
    if (auto v = num(1); v && *v < 8) return static_cast<u8>(kS0 + *v);
  }
  return std::nullopt;
}

std::optional<i64> parse_int(const std::string& raw) {
  std::string t = trim(raw);
  if (t.empty()) return std::nullopt;
  bool neg = false;
  std::size_t i = 0;
  if (t[0] == '-' || t[0] == '+') {
    neg = t[0] == '-';
    i = 1;
  }
  if (i >= t.size()) return std::nullopt;
  i64 value = 0;
  if (t.size() > i + 2 && t[i] == '0' && (t[i + 1] == 'x' || t[i + 1] == 'X')) {
    for (std::size_t k = i + 2; k < t.size(); ++k) {
      const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(t[k])));
      int digit;
      if (c >= '0' && c <= '9')
        digit = c - '0';
      else if (c >= 'a' && c <= 'f')
        digit = 10 + (c - 'a');
      else
        return std::nullopt;
      value = value * 16 + digit;
    }
  } else {
    for (std::size_t k = i; k < t.size(); ++k) {
      if (!std::isdigit(static_cast<unsigned char>(t[k]))) return std::nullopt;
      value = value * 10 + (t[k] - '0');
    }
  }
  return neg ? -value : value;
}

std::optional<ModuleId> parse_module(const std::string& raw) {
  const std::string t = lower(trim(raw));
  if (t == "frame" || t == "framework") return ModuleId::kFramework;
  if (t == "icm") return ModuleId::kIcm;
  if (t == "mlr") return ModuleId::kMlr;
  if (t == "ddt") return ModuleId::kDdt;
  if (t == "ahbm") return ModuleId::kAhbm;
  if (t == "cfc") return ModuleId::kCfc;
  if (auto v = parse_int(t); v && *v >= 0 && *v < 8) return static_cast<ModuleId>(*v);
  return std::nullopt;
}

bool is_label_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

/// Either a literal integer or a symbol reference with an optional addend
/// ("label", "label+8", "label-4"), resolved in pass 2.
struct Value {
  std::optional<i64> literal;
  std::string symbol;
  i64 addend = 0;
};

Value parse_value(const std::string& raw) {
  if (auto v = parse_int(raw)) return Value{v, {}, 0};
  std::string t = trim(raw);
  // split "sym+off" / "sym-off" at the first +/- after the symbol name
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] == '+' || t[i] == '-') {
      const std::string sym = trim(t.substr(0, i));
      const std::string off = trim(t.substr(t[i] == '+' ? i + 1 : i));
      if (auto v = parse_int(off)) return Value{std::nullopt, sym, *v};
      break;
    }
  }
  return Value{std::nullopt, t, 0};
}

/// True when `value` fits an immediate field of kind `kind`.
constexpr bool fits(ImmKind kind, i64 value) {
  return kind == ImmKind::kZero ? value >= 0 && value <= 0xFFFF
                                : value >= -32768 && value <= 32767;
}

Instr i_type(Op op, u8 rt, u8 rs, i64 imm) {
  Instr in;
  in.op = op;
  in.rt = rt;
  in.rs = rs;
  in.imm = static_cast<i32>(imm);
  return in;
}

// A single source line, pre-parsed.
struct Line {
  int number = 0;
  std::vector<std::string> labels;
  std::optional<Statement> stmt;
};

Statement parse_statement(const std::string& body) {
  Statement st;
  std::size_t i = 0;
  while (i < body.size() && !std::isspace(static_cast<unsigned char>(body[i]))) ++i;
  st.mnemonic = lower(body.substr(0, i));
  std::string rest = trim(body.substr(i));
  if (rest.empty()) return st;
  // split on commas, but keep "off(reg)" together (no commas inside parens anyway)
  std::string current;
  for (char c : rest) {
    if (c == ',') {
      st.operands.push_back(trim(current));
      current.clear();
    } else {
      current += c;
    }
  }
  st.operands.push_back(trim(current));
  return st;
}

struct Asm {
  const AssembleOptions& opts;
  Program prog;
  std::vector<Line> lines;

  explicit Asm(const AssembleOptions& o) : opts(o) {
    prog.text_base = o.text_base;
    prog.data_base = o.data_base;
  }

  [[noreturn]] void fail(int line, const std::string& msg) const {
    throw AssemblyError("assembly error at line " + std::to_string(line) + ": " + msg);
  }

  void tokenize(std::string_view source) {
    int number = 0;
    std::size_t pos = 0;
    while (pos <= source.size()) {
      const std::size_t nl = source.find('\n', pos);
      std::string raw(source.substr(pos, nl == std::string_view::npos ? nl : nl - pos));
      pos = nl == std::string_view::npos ? source.size() + 1 : nl + 1;
      ++number;
      // strip comments
      for (std::size_t i = 0; i < raw.size(); ++i) {
        if (raw[i] == '#' || raw[i] == ';') {
          raw.resize(i);
          break;
        }
      }
      std::string text = trim(raw);
      if (text.empty()) continue;
      Line line;
      line.number = number;
      // peel off leading labels
      while (true) {
        std::size_t i = 0;
        while (i < text.size() && is_label_char(text[i])) ++i;
        if (i > 0 && i < text.size() && text[i] == ':') {
          line.labels.push_back(text.substr(0, i));
          text = trim(text.substr(i + 1));
          if (text.empty()) break;
          continue;
        }
        break;
      }
      if (!text.empty()) line.stmt = parse_statement(text);
      if (!line.labels.empty() || line.stmt) lines.push_back(std::move(line));
    }
  }

  enum class Seg { kText, kData };

  /// True for the label form of a load or store, "lw rt, label", which
  /// expands to two instructions through $at.
  static bool is_label_form(const Statement& st) {
    return st.operands.size() == 2 && st.operands[1].find('(') == std::string::npos &&
           !parse_int(st.operands[1]);
  }

  /// Number of machine instructions a (pseudo-)instruction expands to.
  unsigned instr_size(const Statement& st, int line) const {
    const std::string& m = st.mnemonic;
    if (m == "la") return 2;
    if (m == "li") {
      if (st.operands.size() != 2) fail(line, "li needs 2 operands");
      auto v = parse_int(st.operands[1]);
      if (!v) fail(line, "li needs a literal immediate");
      return fits(op_info(Op::kAddi).imm, *v) ? 1 : 2;  // one addi, or lui + ori
    }
    const Format format = op_info(op_named(m)).format;
    return (format == Format::kLoad || format == Format::kStore) && is_label_form(st) ? 2 : 1;
  }

  void pass1() {
    Seg seg = Seg::kText;
    Addr text_pc = prog.text_base;
    Addr data_pc = prog.data_base;
    for (const Line& line : lines) {
      Addr& pc = seg == Seg::kText ? text_pc : data_pc;
      for (const std::string& label : line.labels) {
        if (prog.symbols.count(label)) fail(line.number, "duplicate label '" + label + "'");
        prog.symbols[label] = pc;
      }
      if (!line.stmt) continue;
      const Statement& st = *line.stmt;
      const std::string& m = st.mnemonic;
      if (m == ".text") {
        seg = Seg::kText;
      } else if (m == ".data") {
        seg = Seg::kData;
      } else if (m == ".entry" || m == ".globl") {
        // sized zero
      } else if (m == ".align") {
        auto v = parse_int(st.operands.empty() ? "" : st.operands[0]);
        if (!v || *v < 0 || *v > 12) fail(line.number, "bad .align");
        data_pc = align_up(data_pc, 1u << *v);
      } else if (m == ".word") {
        if (seg != Seg::kData) fail(line.number, ".word outside .data");
        data_pc = align_up(data_pc, 4);
        // Re-record labels on this line at the aligned address.
        for (const std::string& label : line.labels) prog.symbols[label] = data_pc;
        data_pc += static_cast<Addr>(4 * st.operands.size());
      } else if (m == ".byte") {
        if (seg != Seg::kData) fail(line.number, ".byte outside .data");
        data_pc += static_cast<Addr>(st.operands.size());
      } else if (m == ".space") {
        if (seg != Seg::kData) fail(line.number, ".space outside .data");
        auto v = parse_int(st.operands.empty() ? "" : st.operands[0]);
        if (!v || *v < 0) fail(line.number, "bad .space");
        data_pc += static_cast<Addr>(*v);
      } else if (!m.empty() && m[0] == '.') {
        fail(line.number, "unknown directive '" + m + "'");
      } else {
        if (seg != Seg::kText) fail(line.number, "instruction outside .text");
        pc += 4 * instr_size(st, line.number);
      }
    }
  }

  Addr resolve(const Value& v, int line) const {
    if (v.literal) return static_cast<Addr>(*v.literal);
    auto it = prog.symbols.find(v.symbol);
    if (it == prog.symbols.end()) fail(line, "undefined symbol '" + v.symbol + "'");
    return it->second + static_cast<Addr>(v.addend);
  }

  u8 reg_operand(const Statement& st, std::size_t i, int line) const {
    if (i >= st.operands.size()) fail(line, "missing register operand");
    auto r = parse_reg(st.operands[i]);
    if (!r) fail(line, "bad register '" + st.operands[i] + "'");
    return *r;
  }

  i64 int_operand(const Statement& st, std::size_t i, int line) const {
    if (i >= st.operands.size()) fail(line, "missing operand");
    auto v = parse_int(st.operands[i]);
    if (!v) fail(line, "bad integer '" + st.operands[i] + "'");
    return *v;
  }

  void emit(Instr in) { prog.text.push_back(encode(in)); }

  /// `value` as the immediate field of `op`; fails unless the row's
  /// immediate kind admits it.
  i32 immediate(Op op, i64 value, int line) const {
    const OpInfo& row = op_info(op);
    if (!fits(row.imm, value)) {
      fail(line, "immediate " + std::to_string(value) + " out of range for " +
                     std::string(row.mnemonic) +
                     (row.imm == ImmKind::kZero ? " (0..65535)" : " (-32768..32767)"));
    }
    return static_cast<i32>(value);
  }

  void emit_load_addr(u8 rt, Addr addr) {
    // lui rt, hi; ori rt, rt, lo
    emit(i_type(Op::kLui, rt, 0, addr >> 16));
    emit(i_type(Op::kOri, rt, rt, addr & 0xFFFFu));
  }

  /// Parse "off(reg)" or "(reg)" memory operand.
  struct MemOperand {
    u8 base;
    i64 offset;
  };
  std::optional<MemOperand> parse_mem(const std::string& raw) const {
    const std::size_t open = raw.find('(');
    const std::size_t close = raw.rfind(')');
    if (open == std::string::npos || close == std::string::npos || close < open) {
      return std::nullopt;
    }
    const std::string off = trim(raw.substr(0, open));
    const std::string base = raw.substr(open + 1, close - open - 1);
    auto r = parse_reg(base);
    if (!r) return std::nullopt;
    i64 offset = 0;
    if (!off.empty()) {
      auto v = parse_int(off);
      if (!v) return std::nullopt;
      offset = *v;
    }
    return MemOperand{*r, offset};
  }

  void assemble_mem(Op op, const Statement& st, int line) {
    const u8 rt = reg_operand(st, 0, line);
    if (auto mem = parse_mem(st.operands[1])) {
      emit(i_type(op, rt, mem->base, immediate(op, mem->offset, line)));
    } else if (auto v = parse_int(st.operands[1])) {
      emit(i_type(op, rt, 0, immediate(op, *v, line)));  // absolute small address
    } else {
      // label form: lui at, hi(label); op rt, lo(label)(at), with hi rounded
      // up when lo is negative as a signed 16-bit offset
      const Addr addr = resolve(parse_value(st.operands[1]), line);
      const i32 lo = sign_extend(addr & 0xFFFFu, 16);
      emit(i_type(Op::kLui, kAt, 0, (addr >> 16) + (lo < 0 ? 1 : 0)));
      emit(i_type(op, rt, kAt, lo));
    }
  }

  void emit_branch(Op op, u8 rs, u8 rt, const std::string& label, Addr pc, int line) {
    const Addr target = resolve(parse_value(label), line);
    const i64 offset = (static_cast<i64>(target) - static_cast<i64>(pc) - 4) / 4;
    if (!fits(op_info(op).imm, offset)) fail(line, "branch target out of range");
    emit(i_type(op, rt, rs, offset));
  }

  /// A machine instruction, its operands read in the order its row's format
  /// gives.
  void assemble_op(Op op, const Statement& st, Addr pc, int line) {
    const OpInfo& row = op_info(op);
    const std::size_t count = st.operands.size();
    auto need = [&](std::size_t n) {
      if (count != n) fail(line, st.mnemonic + " needs " + std::to_string(n) + " operand(s)");
    };
    auto reg = [&](std::size_t i) { return reg_operand(st, i, line); };
    auto imm = [&](std::size_t i) { return immediate(op, int_operand(st, i, line), line); };
    Instr in;
    in.op = op;
    switch (row.format) {
      case Format::kUnknown:
        fail(line, "unknown mnemonic '" + st.mnemonic + "'");
      case Format::kNone:
        need(0);
        break;
      case Format::kRdRsRt:
        need(3);
        in.rd = reg(0);
        in.rs = reg(1);
        in.rt = reg(2);
        break;
      case Format::kRdRtRs:
        need(3);
        in.rd = reg(0);
        in.rt = reg(1);
        in.rs = reg(2);
        break;
      case Format::kRdRtSa: {
        need(3);
        in.rd = reg(0);
        in.rt = reg(1);
        const i64 sh = int_operand(st, 2, line);
        if (sh < 0 || sh > 31) fail(line, "shift amount out of range");
        in.shamt = static_cast<u8>(sh);
        break;
      }
      case Format::kRs:
        need(1);
        in.rs = reg(0);
        break;
      case Format::kRdRs:  // "jalr rs" links through ra
        if (count != 1) need(2);
        in.rd = count == 1 ? u8{kRa} : reg(0);
        in.rs = reg(count - 1);
        break;
      case Format::kRtRsImm:
        need(3);
        in.rt = reg(0);
        in.rs = reg(1);
        in.imm = imm(2);
        break;
      case Format::kRtImm:
        need(2);
        in.rt = reg(0);
        in.imm = imm(1);
        break;
      case Format::kLoad:
      case Format::kStore:
        need(2);
        assemble_mem(op, st, line);
        return;
      case Format::kBranch:
        need(3);
        emit_branch(op, reg(0), reg(1), st.operands[2], pc, line);
        return;
      case Format::kJump:
      case Format::kCall: {
        need(1);
        const Addr target = resolve(parse_value(st.operands[0]), line);
        if (target % 4 != 0) fail(line, "misaligned jump target");
        if (target >> 28 != 0) fail(line, "jump target out of range");
        in.target = target >> 2;
        break;
      }
      case Format::kChk: {
        need(5);
        auto mod = parse_module(st.operands[0]);
        if (!mod) fail(line, "bad module '" + st.operands[0] + "'");
        in.chk_module = *mod;
        const i64 opn = int_operand(st, 1, line);
        if (opn < 0 || opn > 31) fail(line, "chk op out of range");
        in.chk_op = static_cast<u8>(opn);
        const std::string blk = lower(trim(st.operands[2]));
        if (blk != "blk" && blk != "nblk") fail(line, "expected blk or nblk");
        in.chk_blocking = blk == "blk";
        in.rs = reg(3);
        const i64 chk_imm = int_operand(st, 4, line);
        if (chk_imm < 0 || chk_imm > 0xFFF) fail(line, "chk imm out of range");
        in.chk_imm = static_cast<u16>(chk_imm);
        break;
      }
    }
    emit(in);
  }

  void assemble_instr(const Statement& st, Addr pc, int line) {
    const std::string& m = st.mnemonic;
    // The pseudo-instructions; every other mnemonic names an opcode table row.
    if (m == "nop") {
      prog.text.push_back(kNopEncoding);
    } else if (m == "li") {
      const u8 rt = reg_operand(st, 0, line);
      const i64 v = int_operand(st, 1, line);
      if (fits(op_info(Op::kAddi).imm, v)) {
        emit(i_type(Op::kAddi, rt, 0, v));
      } else {
        emit_load_addr(rt, static_cast<Addr>(v));
      }
    } else if (m == "la") {
      const u8 rt = reg_operand(st, 0, line);
      if (st.operands.size() != 2) fail(line, "la needs 2 operands");
      emit_load_addr(rt, resolve(parse_value(st.operands[1]), line));
    } else if (m == "move") {
      Instr in;
      in.op = Op::kAdd;
      in.rd = reg_operand(st, 0, line);
      in.rs = reg_operand(st, 1, line);
      emit(in);
    } else if (m == "b") {
      if (st.operands.size() != 1) fail(line, "b needs 1 operand");
      emit_branch(Op::kBeq, 0, 0, st.operands[0], pc, line);
    } else if (m == "beqz" || m == "bnez") {
      if (st.operands.size() != 2) fail(line, m + " needs 2 operands");
      emit_branch(m == "beqz" ? Op::kBeq : Op::kBne, reg_operand(st, 0, line), 0,
                  st.operands[1], pc, line);
    } else {
      assemble_op(op_named(m), st, pc, line);
    }
  }

  void pass2() {
    Addr data_pc = prog.data_base;
    auto data_put = [&](Addr addr, u8 byte) {
      const std::size_t index = addr - prog.data_base;
      if (index >= prog.data.size()) prog.data.resize(index + 1, 0);
      prog.data[index] = byte;
    };
    for (const Line& line : lines) {
      if (!line.stmt) continue;
      const Statement& st = *line.stmt;
      const std::string& m = st.mnemonic;
      if (m == ".text" || m == ".data") {
        // segment validity was established in pass 1
      } else if (m == ".globl") {
        // no-op
      } else if (m == ".entry") {
        if (st.operands.size() != 1) fail(line.number, ".entry needs a label");
        prog.entry = resolve(parse_value(st.operands[0]), line.number);
      } else if (m == ".align") {
        data_pc = align_up(data_pc, 1u << int_operand(st, 0, line.number));
      } else if (m == ".word") {
        data_pc = align_up(data_pc, 4);
        for (const std::string& operand : st.operands) {
          const Addr v = resolve(parse_value(operand), line.number);
          for (int b = 0; b < 4; ++b) data_put(data_pc + b, static_cast<u8>((v >> (8 * b)) & 0xFF));
          data_pc += 4;
        }
      } else if (m == ".byte") {
        for (const std::string& operand : st.operands) {
          const i64 v = int_operand({.mnemonic = m, .operands = {operand}}, 0, line.number);
          data_put(data_pc, static_cast<u8>(v & 0xFF));
          ++data_pc;
        }
      } else if (m == ".space") {
        const i64 n = int_operand(st, 0, line.number);
        for (i64 i = 0; i < n; ++i) data_put(data_pc + static_cast<Addr>(i), 0);
        data_pc += static_cast<Addr>(n);
      } else {
        const Addr pc = prog.text_base + static_cast<Addr>(prog.text.size() * 4);
        const std::size_t before = prog.text.size();
        assemble_instr(st, pc, line.number);
        const unsigned expected = instr_size(st, line.number);
        if (prog.text.size() - before != expected) {
          fail(line.number, "internal: pass1/pass2 size mismatch");
        }
      }
    }
    if (prog.entry == prog.text_base) {
      auto it = prog.symbols.find("main");
      if (it != prog.symbols.end()) prog.entry = it->second;
    }
  }
};

}  // namespace

Addr Program::symbol(const std::string& name) const {
  auto it = symbols.find(name);
  if (it == symbols.end()) throw AssemblyError("undefined symbol '" + name + "'");
  return it->second;
}

Word Program::text_word(Addr addr) const {
  if (addr < text_base || addr >= text_end() || addr % 4 != 0) {
    throw AssemblyError("text address out of range");
  }
  return text[(addr - text_base) / 4];
}

Program assemble(std::string_view source, const AssembleOptions& options) {
  Asm a(options);
  a.tokenize(source);
  a.pass1();
  a.pass2();
  return std::move(a.prog);
}

}  // namespace rse::isa
