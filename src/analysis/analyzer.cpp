#include "analysis/analyzer.hpp"

#include <algorithm>
#include <iomanip>
#include <optional>
#include <sstream>

#include "isa/instruction.hpp"
#include "isa/semantics.hpp"

namespace rse::analysis {
namespace {

std::string hex(Addr addr) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(8) << std::setfill('0') << addr;
  return os.str();
}

bool in_text(const isa::Program& p, Addr addr) {
  return addr >= p.text_base && addr < p.text_end() && (addr & 3u) == 0;
}

isa::Instr instr_at(const isa::Program& p, Addr pc) {
  return isa::decode(p.text[(pc - p.text_base) / 4]);
}

struct Emitter {
  const isa::Program& program;
  std::vector<Diagnostic>& out;

  void operator()(Severity severity, DiagCode code, Addr addr, std::string message) const {
    Diagnostic d;
    d.severity = severity;
    d.code = code;
    d.addr = addr;
    d.symbol = symbolize(program, addr);
    d.message = std::move(message);
    out.push_back(std::move(d));
  }
};

void check_direct_targets(const isa::Program& p, const ControlFlowGraph& cfg,
                          const Emitter& emit) {
  for (const BasicBlock& block : cfg.blocks) {
    const Addr pc = block.terminator_pc();
    const isa::Instr term = instr_at(p, pc);
    std::optional<Addr> target;
    switch (term.op_class()) {
      case isa::OpClass::kBranch:
        target = isa::branch_target(pc, term);
        break;
      case isa::OpClass::kJump:
        if (term.op == isa::Op::kJ || term.op == isa::Op::kJal) target = isa::jump_target(term);
        break;
      default:
        break;
    }
    if (target && !in_text(p, *target)) {
      emit(Severity::kError, DiagCode::kBranchTargetOutsideText, pc,
           isa::disassemble(term) + ": target " + hex(*target) + " lies outside text [" +
               hex(p.text_base) + ", " + hex(p.text_end()) + ")");
    }
  }
}

void check_fall_off_end(const isa::Program& p, const ControlFlowGraph& cfg,
                        const Emitter& emit) {
  for (const BasicBlock& block : cfg.blocks) {
    if (!block.reachable || block.end != cfg.text_end) continue;
    if (block.exit != BlockExit::kFallThrough && block.exit != BlockExit::kBranch) continue;
    const isa::Instr term = instr_at(p, block.terminator_pc());
    emit(Severity::kError, DiagCode::kFallOffTextEnd, block.terminator_pc(),
         "execution can fall past text_end() " + hex(cfg.text_end) + " (last instruction: " +
             isa::disassemble(term) + ")");
  }
}

void check_encodings(const isa::Program& p, const ControlFlowGraph& cfg, const Emitter& emit) {
  for (std::size_t i = 0; i < p.text.size(); ++i) {
    const Addr pc = p.text_base + static_cast<Addr>(i * 4);
    if (isa::decode(p.text[i]).op != isa::Op::kInvalid) continue;
    const BasicBlock* block = cfg.block_at(pc);
    const bool reachable = block != nullptr && block->reachable;
    emit(reachable ? Severity::kError : Severity::kWarning, DiagCode::kInvalidEncoding, pc,
         "word " + hex(p.text[i]) + " does not decode to any instruction" +
             (reachable ? " (reachable: traps at execution)" : " (unreachable)"));
  }
}

void check_stores(const isa::Program& p, const ControlFlowGraph& cfg, const Emitter& emit) {
  // Per-block constant propagation over the assembler's materialization
  // idioms (lui/ori, addi rs=r0): enough to resolve the `sw rt, label`
  // pseudo-form without pretending to be a value analysis.
  for (const BasicBlock& block : cfg.blocks) {
    std::optional<u32> known[isa::kNumRegs];
    known[0] = 0;
    for (Addr pc = block.start; pc < block.end; pc += 4) {
      const isa::Instr in = instr_at(p, pc);
      if (in.op_class() == isa::OpClass::kStore) {
        if (known[in.rs]) {
          const Addr addr = *known[in.rs] + static_cast<u32>(in.imm);
          if (addr >= p.text_base && addr < p.text_end()) {
            emit(Severity::kError, DiagCode::kStoreToText, pc,
                 isa::disassemble(in) + ": resolved store address " + hex(addr) +
                     " lies inside the text segment");
          }
        }
        continue;
      }
      const auto dest = in.dest_reg();
      if (!dest) continue;
      std::optional<u32> value;
      if (in.op == isa::Op::kLui) {
        value = static_cast<u32>(in.imm) << 16;
      } else if (in.op == isa::Op::kOri && known[in.rs]) {
        value = *known[in.rs] | (static_cast<u32>(in.imm) & 0xFFFFu);
      } else if (in.op == isa::Op::kAddi && known[in.rs]) {
        value = *known[in.rs] + static_cast<u32>(in.imm);
      }
      known[*dest] = value;
      known[0] = 0;
    }
  }
}

/// chk_op values each module actually decodes; nullopt = the module accepts
/// any op (the ICM treats every CHK addressed to it as "check the next
/// instruction" regardless of the op field).
std::optional<std::vector<u8>> valid_chk_ops(isa::ModuleId module) {
  switch (module) {
    case isa::ModuleId::kFramework: return std::vector<u8>{1, 2};
    case isa::ModuleId::kIcm: return std::nullopt;
    case isa::ModuleId::kMlr: return std::vector<u8>{3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
    case isa::ModuleId::kDdt: return std::vector<u8>{3};
    case isa::ModuleId::kAhbm: return std::vector<u8>{3, 4, 5};
    case isa::ModuleId::kCfc: return std::vector<u8>{};  // no CHK ops defined
  }
  return std::vector<u8>{};
}

void check_chk(const isa::Program& p, const Emitter& emit) {
  for (std::size_t i = 0; i < p.text.size(); ++i) {
    const isa::Instr in = isa::decode(p.text[i]);
    if (in.op != isa::Op::kChk) continue;
    const Addr pc = p.text_base + static_cast<Addr>(i * 4);
    const auto module_field = static_cast<unsigned>(in.chk_module);
    if (module_field >= isa::kNumModuleIds) {
      emit(Severity::kError, DiagCode::kChkUnknownModule, pc,
           isa::disassemble(in) + ": module# " + std::to_string(module_field) +
               " names no RSE module (valid: 0.." + std::to_string(isa::kNumModuleIds - 1) +
               ")");
      continue;
    }
    if (in.chk_module == isa::ModuleId::kFramework &&
        (in.chk_op == 1 /*enable*/ || in.chk_op == 2 /*disable*/)) {
      const unsigned target = in.chk_imm & 0x7u;
      if (target >= isa::kNumModuleIds) {
        emit(Severity::kError, DiagCode::kChkBadConfig, pc,
             isa::disassemble(in) + ": imm12 selects module " + std::to_string(target) +
                 ", which does not exist — the enable/disable is silently dropped");
      }
    }
    const auto ops = valid_chk_ops(in.chk_module);
    if (ops && std::find(ops->begin(), ops->end(), in.chk_op) == ops->end()) {
      emit(Severity::kWarning, DiagCode::kChkUnknownOp, pc,
           isa::disassemble(in) + ": op" + std::to_string(in.chk_op) +
               " is not decoded by the addressed module");
    }
    if (in.chk_module == isa::ModuleId::kIcm) {
      const bool last_word = i + 1 >= p.text.size();
      const bool next_is_chk = !last_word && isa::decode(p.text[i + 1]).op == isa::Op::kChk;
      if (last_word || next_is_chk) {
        emit(Severity::kWarning, DiagCode::kChkChecksNothing, pc,
             last_word
                 ? "ICM CHECK is the last text word: there is no next instruction to check"
                 : "ICM CHECK is followed by another CHECK: its coverage shifts to the next "
                   "non-CHK dispatch");
      }
    }
  }
}

void check_unreachable(const ControlFlowGraph& cfg, const Emitter& emit) {
  for (const BasicBlock& block : cfg.blocks) {
    if (block.reachable) continue;
    emit(Severity::kWarning, DiagCode::kUnreachableBlock, block.start,
         "block [" + hex(block.start) + ", " + hex(block.end) +
             ") is unreachable from the entry point and every address-taken root");
  }
}

void check_protected_coverage(const isa::Program& p, const AnalysisOptions& options,
                              const Emitter& emit) {
  for (const ProtectedRegion& region : options.protected_regions) {
    for (Addr pc = region.lo & ~Addr{3}; pc < region.hi; pc += 4) {
      if (!in_text(p, pc)) continue;
      const isa::Instr in = instr_at(p, pc);
      if (!in.is_control()) continue;
      const bool covered =
          pc > p.text_base && [&] {
            const isa::Instr prev = instr_at(p, pc - 4);
            return prev.op == isa::Op::kChk && prev.chk_module == isa::ModuleId::kIcm;
          }();
      if (!covered) {
        emit(Severity::kWarning, DiagCode::kMissingChkCoverage, pc,
             isa::disassemble(in) + ": control instruction in protected region '" +
                 region.name + "' lacks a preceding ICM CHECK");
      }
    }
  }
}

// The loader leaves this much scratch below the initial stack pointer
// (stack_top = (stack_base - 64) & ~15), so sp-relative stores at small
// positive offsets are legal; anything beyond is a frame overflow.
constexpr i64 kStackSlackBytes = 64;

void check_footprint(const isa::Program& p, const PageFootprint& fp, const Emitter& emit) {
  const bool has_data = !p.data.empty();
  for (const AccessSite& site : fp.sites) {
    if (!site.is_store) continue;
    if (site.precision == AccessPrecision::kUnknown) {
      emit(Severity::kWarning, DiagCode::kUnresolvedAddress, site.pc,
           "store address cannot be bounded statically; the site is excluded "
           "from the DDT footprint check");
      continue;
    }
    if (site.base == AddressBase::kAbsolute) {
      const bool hits_data = has_data && site.hi >= static_cast<i64>(p.data_base) &&
                             site.lo < static_cast<i64>(p.data_end());
      const bool hits_text = site.hi >= static_cast<i64>(p.text_base) &&
                             site.lo < static_cast<i64>(p.text_end());
      if (!hits_data && !hits_text) {  // store-to-text reports the text case
        emit(Severity::kError, DiagCode::kStoreOutsideFootprint, site.pc,
             "resolved store range [" + hex(static_cast<Addr>(site.lo)) + ", " +
                 hex(static_cast<Addr>(site.hi)) + "] lies outside every mapped segment");
      }
    } else if (site.base == AddressBase::kStack && site.lo > kStackSlackBytes - 1) {
      emit(Severity::kError, DiagCode::kStoreOutsideFootprint, site.pc,
           "sp-relative store at offset " + std::to_string(site.lo) +
               " lands above the thread's initial stack pointer");
    }
  }
}

}  // namespace

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

const char* to_string(DiagCode code) {
  switch (code) {
    case DiagCode::kBranchTargetOutsideText: return "branch-target-outside-text";
    case DiagCode::kFallOffTextEnd: return "fall-off-text-end";
    case DiagCode::kInvalidEncoding: return "invalid-encoding";
    case DiagCode::kStoreToText: return "store-to-text";
    case DiagCode::kChkUnknownModule: return "chk-unknown-module";
    case DiagCode::kChkBadConfig: return "chk-bad-config";
    case DiagCode::kChkUnknownOp: return "chk-unknown-op";
    case DiagCode::kChkChecksNothing: return "chk-checks-nothing";
    case DiagCode::kUnreachableBlock: return "unreachable-block";
    case DiagCode::kMissingChkCoverage: return "missing-chk-coverage";
    case DiagCode::kStoreOutsideFootprint: return "store-outside-footprint";
    case DiagCode::kUnresolvedAddress: return "unresolved-address";
  }
  return "?";
}

bool AnalysisResult::has_errors() const { return count(Severity::kError) > 0; }

u32 AnalysisResult::count(Severity severity) const {
  u32 n = 0;
  for (const Diagnostic& d : diagnostics) n += d.severity == severity ? 1 : 0;
  return n;
}

std::string symbolize(const isa::Program& program, Addr addr) {
  const std::string* best_name = nullptr;
  Addr best_addr = 0;
  for (const auto& [name, value] : program.symbols) {
    if (value > addr || value < program.text_base || value >= program.text_end()) continue;
    if (best_name == nullptr || value > best_addr) {
      best_name = &name;
      best_addr = value;
    }
  }
  if (best_name == nullptr) return {};
  if (best_addr == addr) return *best_name;
  std::ostringstream os;
  os << *best_name << "+0x" << std::hex << (addr - best_addr);
  return os.str();
}

AnalysisResult analyze(const isa::Program& program, const AnalysisOptions& options) {
  AnalysisResult result;
  result.cfg = build_cfg(program);
  if (!options.resolve_indirect_address_taken) {
    for (BasicBlock& block : result.cfg.blocks) {
      if (block.exit == BlockExit::kIndirect) {
        block.indirect_resolved = false;
        block.successors.clear();
      }
    }
  }
  result.indirect = indirect_targets(result.cfg);
  for (const BasicBlock& block : result.cfg.blocks) {
    if ((block.exit == BlockExit::kReturn || block.exit == BlockExit::kIndirect) &&
        !block.indirect_resolved) {
      ++result.unresolved_indirects;
    }
  }

  result.footprint = compute_footprint(program, result.cfg, options);

  const Emitter emit{program, result.diagnostics};
  check_direct_targets(program, result.cfg, emit);
  check_fall_off_end(program, result.cfg, emit);
  check_encodings(program, result.cfg, emit);
  check_stores(program, result.cfg, emit);
  check_chk(program, emit);
  check_unreachable(result.cfg, emit);
  check_protected_coverage(program, options, emit);
  check_footprint(program, result.footprint, emit);

  std::stable_sort(result.diagnostics.begin(), result.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) { return a.addr < b.addr; });
  return result;
}

std::string format_diagnostic(const Diagnostic& d) {
  std::ostringstream os;
  os << to_string(d.severity) << '[' << to_string(d.code) << "] " << hex(d.addr);
  if (!d.symbol.empty()) os << " (" << d.symbol << ")";
  os << ": " << d.message;
  return os.str();
}

std::string to_json(const isa::Program& program, const AnalysisResult& result) {
  (void)program;
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  std::ostringstream os;
  os << "{\n  \"blocks\": " << result.cfg.blocks.size()
     << ",\n  \"reachable_blocks\": " << result.cfg.reachable_blocks()
     << ",\n  \"call_edges\": " << result.cfg.calls.size()
     << ",\n  \"address_taken\": " << result.cfg.address_taken.size()
     << ",\n  \"resolved_indirects\": " << result.indirect.size()
     << ",\n  \"unresolved_indirects\": " << result.unresolved_indirects
     << ",\n  \"errors\": " << result.count(Severity::kError)
     << ",\n  \"warnings\": " << result.count(Severity::kWarning);
  const PageFootprint& fp = result.footprint;
  os << ",\n  \"footprint\": {\"mode\": \""
     << (fp.interprocedural ? "interprocedural" : "flat")
     << "\", \"field_sensitive\": " << (fp.field_sensitive ? "true" : "false")
     << ", \"exact_sites\": " << fp.exact_sites
     << ", \"over_sites\": " << fp.over_sites
     << ", \"unknown_sites\": " << fp.unknown_sites << ", \"pages\": [";
  for (std::size_t i = 0; i < fp.pages.size(); ++i) {
    os << (i == 0 ? "" : ", ") << fp.pages[i];
  }
  os << "], \"store_pages\": [";
  for (std::size_t i = 0; i < fp.store_pages.size(); ++i) {
    os << (i == 0 ? "" : ", ") << fp.store_pages[i];
  }
  os << "]";
  if (fp.has_sp_range) {
    os << ", \"sp_lo\": " << fp.sp_lo << ", \"sp_hi\": " << fp.sp_hi;
  }
  if (fp.has_gp_range) {
    os << ", \"gp_lo\": " << fp.gp_lo << ", \"gp_hi\": " << fp.gp_hi;
  }
  if (fp.interprocedural) {
    u32 summarized = 0;
    for (const FunctionSummary& sum : fp.summaries) {
      if (sum.summarized) ++summarized;
    }
    os << ", \"functions\": " << fp.summaries.size()
       << ", \"summarized_functions\": " << summarized
       << ", \"context_depth\": " << fp.context_depth
       << ", \"contexts_cloned\": " << fp.contexts_cloned
       << ", \"context_fallbacks\": " << fp.context_fallbacks
       << ", \"spawn_contexts\": " << fp.spawn_contexts
       << ", \"sp_contexts\": " << fp.sp_contexts
       << ", \"context_sites\": " << fp.context_pages.size();
  }
  // Site-by-site export (field-sensitivity tooling): every resolved site
  // with its hull, residue stride (0 = dense), base and precision.
  auto base_name = [](AddressBase base) {
    switch (base) {
      case AddressBase::kAbsolute: return "abs";
      case AddressBase::kStack: return "sp";
      case AddressBase::kGlobal: return "gp";
      default: return "unknown";
    }
  };
  os << ", \"sites\": [";
  bool first_site = true;
  for (const AccessSite& site : fp.sites) {
    if (site.precision == AccessPrecision::kUnknown) continue;
    os << (first_site ? "" : ", ") << "{\"pc\": " << site.pc
       << ", \"store\": " << (site.is_store ? "true" : "false")
       << ", \"base\": \"" << base_name(site.base) << "\", \"precision\": \""
       << (site.precision == AccessPrecision::kExact ? "exact" : "over")
       << "\", \"lo\": " << site.lo << ", \"hi\": " << site.hi
       << ", \"stride\": " << site.stride << "}";
    first_site = false;
  }
  os << "], \"context_pages\": [";
  for (std::size_t i = 0; i < fp.context_pages.size(); ++i) {
    const PageFootprint::SitePages& site = fp.context_pages[i];
    os << (i == 0 ? "" : ", ") << "{\"pc\": " << site.pc
       << ", \"store\": " << (site.is_store ? "true" : "false")
       << ", \"pages\": [";
    for (std::size_t j = 0; j < site.pages.size(); ++j) {
      os << (j == 0 ? "" : ", ") << site.pages[j];
    }
    os << "]}";
  }
  os << "]";
  os << "}";
  os << ",\n  \"diagnostics\": [";
  for (std::size_t i = 0; i < result.diagnostics.size(); ++i) {
    const Diagnostic& d = result.diagnostics[i];
    os << (i == 0 ? "" : ",") << "\n    {\"severity\": \"" << to_string(d.severity)
       << "\", \"code\": \"" << to_string(d.code) << "\", \"addr\": " << d.addr
       << ", \"symbol\": \"" << escape(d.symbol) << "\", \"message\": \"" << escape(d.message)
       << "\"}";
  }
  os << (result.diagnostics.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace rse::analysis
