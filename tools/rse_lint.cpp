// rse_lint: static guest-program analyzer (docs/analysis.md).
//
//   rse_lint <program.s> [options]
//   rse_lint --workload <name> [options]
//     --instrument          insert ICM CHECKs before control flow first
//     --protected a:b       declare [a, b) as CHECK-protected (labels or hex
//                           addresses; repeatable)
//     --flat-footprint      disable interprocedural footprint summaries
//     --context-depth N     context-sensitive cloning depth for the
//                           footprint pass (default 1; 0 = joined summaries
//                           only, the context-insensitive behavior)
//     --field-sensitive     strided-interval (field-level) footprint domain
//                           (default on)
//     --no-field-sensitive  revert to dense interval hulls
//     --sp-depth N          abstract-$sp recursion context depth for
//                           field-sensitive summary cloning (default 2)
//     --no-cfi              do not resolve indirect jumps via the
//                           address-taken set
//     --json                machine-readable report on stdout
//     --cfg                 dump the recovered basic blocks
//     --quiet               suppress per-diagnostic output (exit code only)
//
// Exit codes: 0 = no error-severity findings, 1 = errors found (or the
// program failed to assemble), 2 = usage.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "args.hpp"
#include "campaign/workload.hpp"
#include "common/error.hpp"
#include "isa/assembler.hpp"
#include "workloads/workloads.hpp"

using namespace rse;

namespace {

int usage() {
  std::cerr << "usage: rse_lint <program.s> [--instrument] [--protected LO:HI]...\n"
            << "       rse_lint --workload NAME\n"
            << "  [--no-cfi] [--flat-footprint] [--context-depth N] [--field-sensitive]\n"
            << "  [--no-field-sensitive] [--sp-depth N] [--json] [--cfg] [--quiet]\n"
            << "workloads:";
  for (const std::string& name : campaign::workload_names()) std::cerr << ' ' << name;
  std::cerr << "\n";
  return 2;
}

/// "label" or hex/decimal address -> Addr.
bool resolve_bound(const isa::Program& program, const std::string& token, Addr* out) {
  try {
    *out = program.symbol(token);
    return true;
  } catch (const SimError&) {
  }
  const std::optional<u64> value = tools::parse_uint(token);
  if (!value || *value > std::numeric_limits<Addr>::max()) return false;
  *out = static_cast<Addr>(*value);
  return true;
}

void dump_footprint(const isa::Program& program, const analysis::PageFootprint& fp) {
  std::cout << "footprint (" << (fp.interprocedural ? "interprocedural" : "flat")
            << (fp.field_sensitive ? ", field-sensitive" : "")
            << "): " << fp.exact_sites << " exact + " << fp.over_sites
            << " over-approximate + " << fp.unknown_sites << " unknown sites\n";
  std::cout << "  pages:";
  for (u32 page : fp.pages) std::cout << " 0x" << std::hex << page << std::dec;
  std::cout << "\n  store pages:";
  for (u32 page : fp.store_pages) std::cout << " 0x" << std::hex << page << std::dec;
  std::cout << "\n";
  if (fp.has_sp_range) {
    std::cout << "  sp envelope: [" << fp.sp_lo << ", " << fp.sp_hi << "]\n";
  }
  if (fp.has_gp_range) {
    std::cout << "  gp envelope: [" << fp.gp_lo << ", " << fp.gp_hi << "]\n";
  }
  for (const analysis::AccessSite& site : fp.sites) {
    if (site.stride < 2) continue;
    std::cout << "  site 0x" << std::hex << site.pc << std::dec
              << (site.is_store ? " store" : " load") << " stride " << site.stride
              << " over [" << site.lo << ", " << site.hi << "]\n";
  }
  for (const analysis::PageFootprint::SitePages& sp : fp.context_pages) {
    std::cout << "  context pages 0x" << std::hex << sp.pc << std::dec
              << (sp.is_store ? " store:" : " load:");
    for (u32 page : sp.pages) std::cout << " 0x" << std::hex << page << std::dec;
    std::cout << "\n";
  }
  for (const analysis::FunctionFootprint& fn : fp.functions) {
    std::cout << "  fn 0x" << std::hex << fn.entry << std::dec;
    const std::string sym = analysis::symbolize(program, fn.entry);
    if (!sym.empty()) std::cout << " " << sym;
    std::cout << ": " << fn.pages.size() << " pages (" << fn.store_pages.size()
              << " written), " << fn.exact_sites << "/" << fn.over_sites << "/"
              << fn.unknown_sites << " exact/over/unknown\n";
  }
  for (const analysis::FunctionSummary& sum : fp.summaries) {
    std::cout << "  summary 0x" << std::hex << sum.entry << std::dec;
    const std::string sym = analysis::symbolize(program, sum.entry);
    if (!sym.empty()) std::cout << " " << sym;
    if (!sum.summarized) {
      std::cout << ": <not summarizable>\n";
      continue;
    }
    std::cout << ": clobbers 0x" << std::hex << sum.clobbered_regs << std::dec
              << (sum.returns ? "" : ", no-return") << ", " << sum.pages.size()
              << " pages";
    if (sum.has_sp_range) {
      std::cout << ", sp [" << sum.sp_lo << ", " << sum.sp_hi << "]";
    }
    if (sum.has_gp_range) {
      std::cout << ", gp [" << sum.gp_lo << ", " << sum.gp_hi << "]";
    }
    if (sum.unknown_sites != 0) std::cout << ", " << sum.unknown_sites << " unknown";
    std::cout << "\n";
  }
}

void dump_cfg(const isa::Program& program, const analysis::ControlFlowGraph& cfg) {
  for (const analysis::BasicBlock& block : cfg.blocks) {
    std::cout << "block " << block.index << " [0x" << std::hex << block.start << ", 0x"
              << block.end << ")" << std::dec;
    const std::string sym = analysis::symbolize(program, block.start);
    if (!sym.empty()) std::cout << " " << sym;
    std::cout << (block.reachable ? "" : " UNREACHABLE");
    std::cout << " ->";
    if (!block.indirect_resolved) {
      std::cout << " <unresolved indirect>";
    } else {
      for (Addr succ : block.successors) std::cout << " 0x" << std::hex << succ << std::dec;
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string workload;
  std::vector<std::string> protected_specs;
  bool instrument = false, json = false, cfg_dump = false, quiet = false;
  analysis::AnalysisOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--protected") protected_specs.push_back(value());
    else if (arg == "--instrument") instrument = true;
    else if (arg == "--no-cfi") options.resolve_indirect_address_taken = false;
    else if (arg == "--flat-footprint") options.interprocedural_footprint = false;
    else if (arg == "--context-depth") options.context_depth = tools::uint_arg<u32>(arg, value());
    else if (arg == "--field-sensitive") options.field_sensitive = true;
    else if (arg == "--no-field-sensitive") options.field_sensitive = false;
    else if (arg == "--sp-depth") options.field_sp_depth = tools::uint_arg<u32>(arg, value());
    else if (arg == "--json") json = true;
    else if (arg == "--cfg") cfg_dump = true;
    else if (arg == "--quiet") quiet = true;
    else if (!arg.empty() && arg[0] == '-') return usage();
    else path = arg;
  }
  if (path.empty() == workload.empty()) return usage();  // exactly one input

  try {
    std::string source;
    if (!workload.empty()) {
      source = campaign::make_workload(workload).source;
    } else {
      std::ifstream file(path);
      if (!file) {
        std::cerr << "rse_lint: cannot open " << path << "\n";
        return 1;
      }
      std::stringstream buffer;
      buffer << file.rdbuf();
      source = buffer.str();
    }
    if (instrument) source = workloads::instrument_checks(source);

    const isa::Program program = isa::assemble(source);
    for (const std::string& spec : protected_specs) {
      const std::size_t colon = spec.find(':');
      analysis::ProtectedRegion region;
      region.name = spec;
      if (colon == std::string::npos ||
          !resolve_bound(program, spec.substr(0, colon), &region.lo) ||
          !resolve_bound(program, spec.substr(colon + 1), &region.hi)) {
        std::cerr << "rse_lint: bad --protected spec '" << spec << "' (want LO:HI)\n";
        return usage();
      }
      options.protected_regions.push_back(std::move(region));
    }

    const analysis::AnalysisResult result = analysis::analyze(program, options);
    if (cfg_dump) {
      dump_cfg(program, result.cfg);
      dump_footprint(program, result.footprint);
    }
    if (json) {
      std::cout << analysis::to_json(program, result);
    } else if (!quiet) {
      for (const analysis::Diagnostic& d : result.diagnostics) {
        std::cout << analysis::format_diagnostic(d) << "\n";
      }
      std::cout << "rse_lint: " << result.cfg.blocks.size() << " blocks ("
                << result.cfg.reachable_blocks() << " reachable), " << result.indirect.size()
                << " resolved + " << result.unresolved_indirects << " unresolved indirects, "
                << result.footprint.pages.size() << " footprint pages ("
                << result.footprint.unknown_sites << " unknown sites), "
                << result.count(analysis::Severity::kError) << " errors, "
                << result.count(analysis::Severity::kWarning) << " warnings\n";
    }
    return result.has_errors() ? 1 : 0;
  } catch (const SimError& error) {
    std::cerr << "rse_lint: " << error.what() << "\n";
    return 1;
  }
}
