// Standalone calls into one layer at a time, on a workload's own inputs.
#include <sstream>

#include "analysis/analyzer.hpp"
#include "exec/fast_session.hpp"
#include "isa/assembler.hpp"
#include "os/guest_os.hpp"
#include "workloads.hpp"

namespace perfbench {

using rse::campaign::WorkloadSetup;

namespace {

constexpr int kLoadRepeats = 15;
constexpr int kStepRepeats = 2;
// One fast run of kmeans-large takes about 2 ms, so the superblock A/B needs
// many pairs for its ratio to settle.
constexpr int kFastRepeats = 100;

}  // namespace

LoadedGuest::LoadedGuest(const WorkloadSetup& setup, const rse::isa::Program& program,
                         rse::Cycle run_limit)
    : machine(setup.machine), guest(machine, [&] {
        rse::os::OsConfig config = setup.os;
        config.run_limit = run_limit;
        return config;
      }()) {
  guest.load(program);
  for (rse::isa::ModuleId id : setup.host_enables) guest.enable_module(id);
}

void probe_load_path(const WorkloadSetup& setup, Sheet& sheet) {
  std::vector<double> assemble_ms, analyze_ms, load_ms;
  rse::isa::Program program;
  for (int i = 0; i < kLoadRepeats; ++i) {
    auto start = Clock::now();
    program = rse::isa::assemble(setup.source);
    assemble_ms.push_back(seconds_since(start) * 1e3);

    if (setup.os.static_cfc || setup.os.static_ddt) {
      // The options GuestOs::load hands the analyzer.
      rse::analysis::AnalysisOptions options;
      options.interprocedural_footprint = setup.os.footprint_summaries;
      options.context_depth = setup.os.context_depth;
      options.field_sensitive = setup.os.field_sensitive;
      options.field_sp_depth = setup.os.field_sp_depth;
      start = Clock::now();
      const rse::analysis::AnalysisResult result = rse::analysis::analyze(program, options);
      analyze_ms.push_back(seconds_since(start) * 1e3);
    }

    start = Clock::now();
    { LoadedGuest loaded(setup, program, setup.os.run_limit); }
    load_ms.push_back(seconds_since(start) * 1e3);
  }
  sheet.set("isa.assemble_ms", median(assemble_ms));
  sheet.set("analysis.analyze_ms", median(analyze_ms));
  sheet.set("os.load_ms", median(load_ms));
}

void probe_step(const WorkloadSetup& setup, Sheet& sheet) {
  const rse::isa::Program program = rse::isa::assemble(setup.source);
  std::vector<double> ns_per_cycle, ns_per_instr;
  std::string first_counters;
  for (int i = 0; i < kStepRepeats; ++i) {
    LoadedGuest loaded(setup, program, setup.os.run_limit);
    rse::os::Machine& m = loaded.machine;
    const auto start = Clock::now();
    while (!loaded.guest.finished()) loaded.guest.step();
    const double ns = seconds_since(start) * 1e9;

    const rse::cpu::CoreStats& core = m.core().stats();
    const double cycles = static_cast<double>(m.now());
    const double instrs = static_cast<double>(core.instructions);
    ns_per_cycle.push_back(ns / cycles);
    ns_per_instr.push_back(ns / instrs);

    const rse::mem::BusStats& bus = m.bus().stats();
    double rse_events = 0, mau_requests = 0;
    if (auto* fw = m.framework()) {
      const rse::engine::FrameworkStats& fs = fw->stats();
      rse_events = static_cast<double>(fs.dispatches_seen + fs.commits_seen + fs.squashes_seen);
      mau_requests = static_cast<double>(fw->mau().stats().requests);
    }
    Sheet counters;
    counters.set("cpu.cycles", cycles);
    counters.set("cpu.instructions", instrs);
    counters.set("cpu.ipc", instrs / cycles);
    counters.set("cpu.squashed", static_cast<double>(core.squashed));
    counters.set("cpu.mispredicts", static_cast<double>(core.mispredicts));
    counters.set("mem.il1_miss_rate", m.il1().stats().miss_rate());
    counters.set("mem.dl1_miss_rate", m.dl1().stats().miss_rate());
    counters.set("mem.bus_busy_cycles", static_cast<double>(bus.busy_cycles));
    counters.set("mem.bus_wait_cycles",
                 static_cast<double>(bus.pipeline_wait_cycles + bus.mau_wait_cycles));
    counters.set("rse.events_per_cycle", rse_events / cycles);
    counters.set("rse.mau_requests", mau_requests);
    counters.set("modules.icm_checks",
                 m.icm() ? static_cast<double>(m.icm()->stats().checks_completed) : 0.0);
    counters.set("modules.cfc_transitions",
                 m.cfc() ? static_cast<double>(m.cfc()->stats().transitions_checked) : 0.0);
    counters.set("modules.ddt_tracked_accesses",
                 m.ddt() ? static_cast<double>(m.ddt()->stats().tracked_loads +
                                               m.ddt()->stats().tracked_stores)
                         : 0.0);
    counters.set("modules.ddt_footprint_checks",
                 m.ddt() ? static_cast<double>(m.ddt()->stats().footprint_checks) : 0.0);
    counters.set("os.context_switches",
                 static_cast<double>(loaded.guest.stats().context_switches));
    counters.set("os.syscalls", static_cast<double>(loaded.guest.stats().syscalls));

    std::ostringstream line;
    line.precision(17);
    for (const auto& [name, value] : counters.values) line << " " << name << "=" << value;
    if (i == 0) {
      first_counters = line.str();
      sheet.note("simulated counters (fault-free reference run):" + first_counters);
      for (const auto& [name, value] : counters.values) sheet.set(name, value);
    } else if (line.str() != first_counters) {
      sheet.fail("simulated counters differ between two fault-free runs:" + line.str());
    }
  }
  sheet.set("os.step_ns_per_cycle", median(ns_per_cycle));
  sheet.set("os.step_ns_per_instr", median(ns_per_instr));
}

void probe_fast_exec(const WorkloadSetup& setup, bool superblock_ab, Sheet& sheet) {
  const rse::isa::Program program = rse::isa::assemble(setup.source);
  // One timed FastSession::run_until on a fresh load; returns MIPS.
  const auto run = [&](bool superblocks, rse::exec::BlockCacheStats* stats) {
    LoadedGuest loaded(setup, program, setup.os.run_limit);
    rse::exec::FastSessionConfig config;
    config.relaxed = true;
    config.superblocks = superblocks;
    rse::exec::FastSession session(loaded.guest, config);
    session.seed_leaders(program);
    const auto start = Clock::now();
    session.run_until(setup.os.run_limit);
    const double seconds = seconds_since(start);
    if (stats != nullptr) *stats = session.block_cache().stats();
    return static_cast<double>(session.executed()) / seconds / 1e6;
  };

  std::vector<double> mips;
  rse::exec::BlockCacheStats stats;
  for (int i = 0; i < kFastRepeats; ++i) mips.push_back(run(true, &stats));
  sheet.set("exec.fast_mips", median(mips));
  sheet.set("exec.block_decodes", static_cast<double>(stats.decodes));
  sheet.set("exec.block_lookups", static_cast<double>(stats.lookups));
  if (!superblock_ab) return;

  // Interleaved so that host drift affects both arms alike.
  std::vector<double> on, off;
  for (int i = 0; i < kFastRepeats; ++i) {
    on.push_back(run(true, nullptr));
    off.push_back(run(false, nullptr));
  }
  sheet.set("exec.superblock_on_mips", median(on));
  sheet.set("exec.superblock_off_mips", median(off));
  sheet.set("exec.superblock_gain", median(on) / median(off));
}

}  // namespace perfbench
