// rse-run: run a guest .s program on the simulated machine.
//
//   rse_run program.s [options]
//     --rse                 instantiate the RSE framework (19/3 memory)
//     --icm --mlr --ddt --ahbm   enable a module (implies --rse)
//     --instrument          insert ICM CHECKs before control flow
//     --randomize           MLR layout randomization at load
//     --rerand <cycles>     runtime GOT re-randomization interval
//     --fast                execute through the exec/ fast engine (decoded
//                           block cache + direct-memory path) instead of the
//                           cycle-accurate core; sys_clock reads virtual
//                           time, and the run falls back to the modeled core
//                           when it leaves fast mode's envelope
//                           (docs/execution.md)
//     --limit <cycles>      run limit (default 2e9)
//     --requests <n> --io <cycles>   simulated network parameters
//     --stats               print detailed machine statistics
//     --trace <n>           print the first n committed instructions on
//                           stderr: cycle, thread, pc and disassembly; with
//                           --fast the cycle column is virtual time
//                           (docs/execution.md)
//     --lint                run the static analyzer first; refuse to run on
//                           error-severity findings (rse_lint for details)
//     --static-cfc          precompute the CFG-derived legal-successor table
//     --flat-footprint      static analysis without interprocedural summaries
//     --context-depth N     context-sensitive footprint cloning depth
//                           (default 1; 0 = context-insensitive)
//     --field-sensitive / --no-field-sensitive
//                           strided-interval (field-level) footprint domain
//                           for --static-ddt (default on)
//     --sp-depth N          abstract-$sp recursion context depth for the
//                           field-sensitive footprint (default 2)
//     --static-ddt          hand the DDT the static data-flow page footprint
//                           at load and hand it to the CFC (implies --cfc)
//     --dme                 divergent multi-version execution: run the program
//                           twice under distinct MLR layout-randomization
//                           seeds, each booted like any other run (network
//                           flags and the lint verdict included): record
//                           variant B's canonical committed-instruction trace
//                           and stream variant A through the campaign's
//                           TraceChecker (rse/dme.hpp); prints variant A's
//                           output followed by a `dme:` summary line with
//                           the checker's record count (docs/security.md)
//     --dme-seeds A:B       the two MLR seeds (default 1:2; implies --dme)
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "args.hpp"
#include "campaign/workload.hpp"
#include "common/error.hpp"
#include "exec/fast_session.hpp"
#include "isa/assembler.hpp"
#include "os/guest_os.hpp"
#include "os/machine.hpp"
#include "rse/dme.hpp"
#include "workloads/workloads.hpp"

using namespace rse;

namespace {

int usage() {
  std::cerr << "usage: rse_run <program.s> [--rse] [--icm|--mlr|--ddt|--ahbm|--cfc]...\n"
            << "  [--instrument] [--randomize] [--rerand N] [--limit N] [--fast]\n"
            << "  [--requests N] [--io N] [--stats] [--trace N] [--lint] [--static-cfc]\n"
            << "  [--static-ddt] [--flat-footprint] [--context-depth N]\n"
            << "  [--field-sensitive] [--no-field-sensitive] [--sp-depth N]\n"
            << "  [--dme] [--dme-seeds A:B]\n";
  return 2;
}

void print_stats(os::Machine& machine, os::GuestOs& guest) {
  const cpu::CoreStats& core = machine.core().stats();
  std::cout << "--- machine statistics ---\n";
  std::cout << "cycles:              " << machine.now() << "\n";
  std::cout << "instructions:        " << core.instructions << " (+" << core.chk_committed
            << " CHK)\n";
  std::cout << "IPC:                 "
            << (core.run_cycles ? static_cast<double>(core.instructions) / core.run_cycles : 0)
            << "\n";
  std::cout << "loads/stores:        " << core.loads << "/" << core.stores << "\n";
  std::cout << "branches (mispred):  " << core.branches << " (" << core.mispredicts << ")\n";
  std::cout << "squashed:            " << core.squashed << "\n";
  std::cout << "il1: " << machine.il1().stats().accesses << " accesses, "
            << machine.il1().stats().miss_rate() * 100 << "% miss\n";
  std::cout << "dl1: " << machine.dl1().stats().accesses << " accesses, "
            << machine.dl1().stats().miss_rate() * 100 << "% miss\n";
  std::cout << "bus: " << machine.bus().stats().pipeline_transfers << " pipeline / "
            << machine.bus().stats().mau_transfers << " MAU transfers\n";
  std::cout << "syscalls:            " << guest.stats().syscalls << "\n";
  std::cout << "context switches:    " << guest.stats().context_switches << "\n";
  if (machine.framework() != nullptr) {
    const engine::FrameworkStats& fw = machine.framework()->stats();
    std::cout << "RSE: " << fw.chk_instructions << " CHKs seen, " << fw.errors_reported
              << " errors, safe mode: " << (machine.framework()->safe_mode() ? "YES" : "no")
              << "\n";
    if (machine.icm()->enabled()) {
      std::cout << "ICM: " << machine.icm()->stats().checks_completed << " checks, "
                << machine.icm()->stats().mismatches << " mismatches, "
                << machine.icm()->stats().cache_hits << " cache hits\n";
    }
    if (machine.ddt()->enabled()) {
      std::cout << "DDT: " << machine.ddt()->stats().dependencies_logged << " dependencies, "
                << machine.ddt()->stats().save_page_exceptions << " SavePages\n";
      if (machine.ddt()->has_footprint()) {
        std::cout << "DDT footprint: " << machine.ddt()->stats().footprint_checks
                  << " checks, " << machine.ddt()->stats().footprint_violations
                  << " violations, " << machine.ddt()->stats().pst_prereserved
                  << " pre-reserved, " << machine.ddt()->stats().prereserve_hits
                  << " prereserve hits\n";
      }
    }
    if (machine.ahbm()->enabled()) {
      std::cout << "AHBM: " << machine.ahbm()->stats().beats_received << " beats, "
                << machine.ahbm()->stats().hangs_declared << " hangs declared\n";
    }
    if (machine.cfc()->enabled()) {
      std::cout << "CFC: " << machine.cfc()->stats().transitions_checked << " transitions, "
                << machine.cfc()->stats().violations << " violations ("
                << machine.cfc()->stats().indirect_static_checks << " static / "
                << machine.cfc()->stats().indirect_range_checks << " range indirect checks)\n";
    }
  }
  if (guest.stats().rerandomizations > 0) {
    std::cout << "re-randomizations:   " << guest.stats().rerandomizations << " ("
              << guest.stats().rerandomize_cycles << " stopped cycles)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string path;
  os::MachineConfig machine_config;
  os::OsConfig os_config;
  bool instrument = false;
  bool stats = false;
  u64 trace = 0;
  bool enable_icm = false, enable_mlr = false, enable_ddt = false, enable_ahbm = false;
  bool enable_cfc = false;
  bool lint = false;
  bool fast = false;
  bool dme = false;
  u64 dme_seed_a = 1, dme_seed_b = 2;
  u32 requests = 0;
  Cycle io_latency = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(usage());
      }
      return argv[++i];
    };
    if (arg == "--rse") machine_config.framework_present = true;
    else if (arg == "--icm") enable_icm = true;
    else if (arg == "--mlr") enable_mlr = true;
    else if (arg == "--ddt") enable_ddt = true;
    else if (arg == "--ahbm") enable_ahbm = true;
    else if (arg == "--cfc") enable_cfc = true;
    else if (arg == "--instrument") instrument = true;
    else if (arg == "--randomize") os_config.randomize_layout = true;
    else if (arg == "--rerand") os_config.rerandomize_interval = tools::uint_arg<Cycle>(arg, value());
    else if (arg == "--limit") os_config.run_limit = tools::uint_arg<Cycle>(arg, value());
    else if (arg == "--requests") requests = tools::uint_arg<u32>(arg, value());
    else if (arg == "--io") io_latency = tools::uint_arg<Cycle>(arg, value());
    else if (arg == "--stats") stats = true;
    else if (arg == "--trace") trace = tools::uint_arg<u64>(arg, value());
    else if (arg == "--lint") lint = true;
    else if (arg == "--fast") fast = true;
    else if (arg == "--dme") dme = true;
    else if (arg == "--dme-seeds") {
      const auto [a, b] = tools::split_arg(arg, value(), ':', "A:B");
      dme = true;
      dme_seed_a = tools::uint_arg<u64>(arg, a);
      dme_seed_b = tools::uint_arg<u64>(arg, b);
    }
    else if (arg == "--flat-footprint") os_config.footprint_summaries = false;
    else if (arg == "--context-depth") os_config.context_depth = tools::uint_arg<u32>(arg, value());
    else if (arg == "--field-sensitive") os_config.field_sensitive = true;
    else if (arg == "--no-field-sensitive") os_config.field_sensitive = false;
    else if (arg == "--sp-depth") os_config.field_sp_depth = tools::uint_arg<u32>(arg, value());
    else if (arg == "--static-cfc") {
      os_config.static_cfc = true;
      enable_cfc = true;
    }
    else if (arg == "--static-ddt") {
      os_config.static_ddt = true;
      enable_ddt = true;
    }
    else if (!arg.empty() && arg[0] == '-') return usage();
    else path = arg;
  }
  if (path.empty()) return usage();
  if (enable_icm || enable_mlr || enable_ddt || enable_ahbm || enable_cfc || instrument ||
      os_config.randomize_layout) {
    machine_config.framework_present = true;
  }

  std::ifstream file(path);
  if (!file) {
    std::cerr << "rse_run: cannot open " << path << "\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  std::string source = buffer.str();
  if (instrument) source = workloads::instrument_checks(source);

  try {
    const isa::Program program = isa::assemble(source);
    // The lint gate analyses the configuration the run loads, so its result
    // is the one --static-cfc/--static-ddt install: load takes it as is.
    std::shared_ptr<const analysis::AnalysisResult> verdict;
    if (lint) {
      verdict = std::make_shared<const analysis::AnalysisResult>(
          analysis::analyze(program, os::analysis_options(os_config)));
      for (const analysis::Diagnostic& d : verdict->diagnostics) {
        std::cerr << analysis::format_diagnostic(d) << "\n";
      }
      if (verdict->has_errors()) {
        std::cerr << "rse_run: refusing to run — " << verdict->count(analysis::Severity::kError)
                  << " lint error(s)\n";
        return 1;
      }
    }
    // Every run boots through the campaign's boot sequence: load (with the
    // lint verdict), the flags' modules, then the simulated network.
    std::vector<isa::ModuleId> enables;
    if (enable_icm) enables.push_back(isa::ModuleId::kIcm);
    if (enable_mlr) enables.push_back(isa::ModuleId::kMlr);
    if (enable_ddt) enables.push_back(isa::ModuleId::kDdt);
    if (enable_ahbm) enables.push_back(isa::ModuleId::kAhbm);
    if (enable_cfc) enables.push_back(isa::ModuleId::kCfc);
    const campaign::WorkloadSetup setup{path, source, machine_config, os_config, enables};
    const auto boot = [&](const campaign::WorkloadSetup& s) {
      auto booted = std::make_unique<campaign::BootedGuest>(s, program, s.os.run_limit, verdict);
      if (requests > 0 || io_latency > 0) {
        os::NetworkConfig net;
        if (requests > 0) net.total_requests = requests;
        if (io_latency > 0) net.io_latency_mean = io_latency;
        booted->guest.network().configure(net);
      }
      return booted;
    };

    if (dme) {
      // Record variant B through the fast-path engine, then stream variant A
      // through the cycle-accurate core against it, so convergence here also
      // exercises trace parity across both execution engines.
      campaign::WorkloadSetup setup_b = setup;
      dme::make_variant(setup_b.machine, setup_b.os, dme_seed_b);
      const dme::CanonicalTrace reference = dme::record_trace(boot(setup_b)->guest, program);
      campaign::WorkloadSetup setup_a = setup;
      dme::make_variant(setup_a.machine, setup_a.os, dme_seed_a);
      const auto variant_a = boot(setup_a);
      const dme::TraceChecker checker =
          dme::check_trace(variant_a->guest, program, reference, /*prefer_fast=*/false);
      std::cout << variant_a->guest.output();
      if (checker.divergences() == 0) {
        std::cout << "dme: convergent (" << checker.position() << " canonical records, "
                  << "seeds " << dme_seed_a << ":" << dme_seed_b << ")\n";
      } else {
        std::cout << "dme: DIVERGENCE at record " << checker.first_divergence() << " (seeds "
                  << dme_seed_a << ":" << dme_seed_b << ")\n";
      }
      if (!variant_a->guest.finished()) {
        std::cerr << "rse_run: run limit reached before the program finished\n";
      }
      return variant_a->guest.exit_code();
    }
    const auto booted = boot(setup);
    os::Machine& machine = booted->machine;
    os::GuestOs& guest = booted->guest;
    if (trace > 0) {
      machine.core().set_commit_observer([&trace](Cycle now, const engine::CommitInfo& info) {
        if (trace == 0) return;
        --trace;
        std::cerr << std::setw(10) << now << "  t" << info.thread << "  0x" << std::hex
                  << info.pc << std::dec << "  " << isa::disassemble(info.instr) << "\n";
      });
    }
    if (fast) {
      exec::FastSession session(guest, exec::FastSessionConfig{/*relaxed=*/true});
      session.seed_leaders(program);
      session.run_to_end();
      if (stats) {
        std::cout << "--- fast engine ---\n"
                  << "fast instructions:   " << session.executed() << "\n"
                  << "blocks cached:       " << session.block_cache().blocks_cached() << " ("
                  << session.block_cache().stats().decodes << " decoded, "
                  << session.block_cache().stats().invalidations << " invalidated)\n";
      }
    } else {
      guest.run();
    }

    std::cout << guest.output();
    if (!guest.finished()) {
      std::cerr << "rse_run: run limit reached before the program finished\n";
    }
    if (stats) print_stats(machine, guest);
    return guest.exit_code();
  } catch (const rse::SimError& error) {
    std::cerr << "rse_run: " << error.what() << "\n";
    return 1;
  }
}
