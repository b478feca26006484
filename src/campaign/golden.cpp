#include "campaign/golden.hpp"

#include <functional>
#include <sstream>

#include <algorithm>

#include "common/error.hpp"
#include "exec/fast_session.hpp"
#include "isa/assembler.hpp"

namespace rse::campaign {

GoldenRun simulate_golden(const WorkloadSetup& setup) {
  GoldenRun golden;
  golden.program = isa::assemble(setup.source);

  BootedGuest boot(setup, golden.program, setup.os.run_limit);
  os::Machine& machine = boot.machine;
  os::GuestOs& guest = boot.guest;
  guest.run();
  if (!guest.finished()) {
    throw ConfigError("golden run of workload '" + setup.name + "' hit the run limit");
  }

  golden.output = guest.output();
  golden.exit_code = guest.exit_code();
  golden.cycles = machine.now();
  golden.instructions = machine.core().stats().instructions;
  if (auto* icm = machine.icm()) golden.icm_mismatches = icm->stats().mismatches;
  if (auto* cfc = machine.cfc()) golden.cfc_violations = cfc->stats().violations;
  if (auto* fw = machine.framework()) golden.selfcheck_trips = fw->stats().selfcheck_trips;
  if (auto* ddt = machine.ddt()) {
    golden.ddt_footprint_violations = ddt->stats().footprint_violations;
  }
  golden.os_recoveries = guest.stats().recoveries;
  golden.ioq_slots = setup.machine.core.ruu_size;
  return golden;
}

GoldenRun simulate_golden_fast(const WorkloadSetup& setup) {
  GoldenRun golden;
  golden.program = isa::assemble(setup.source);

  BootedGuest boot(setup, golden.program, setup.os.run_limit);
  os::Machine& machine = boot.machine;
  os::GuestOs& guest = boot.guest;

  exec::FastSession session(guest, exec::FastSessionConfig{/*relaxed=*/true});
  session.seed_leaders(golden.program);
  // Instructions never outnumber cycles, so the run limit bounds both.
  const exec::FastSession::Status status = session.run_until(setup.os.run_limit);
  if (status == exec::FastSession::Status::kBail) {
    // Outside fast mode's envelope (threads, network I/O, crash recovery):
    // transplant what was fast-executed and let the cycle-accurate machine
    // finish — output and exit state stay exact, only timing is hybrid.
    session.transplant(session.virtual_now());
    guest.run();
  }
  if (!guest.finished()) {
    throw ConfigError("fast golden run of workload '" + setup.name + "' hit the run limit");
  }

  golden.output = guest.output();
  golden.exit_code = guest.exit_code();
  golden.cycles = std::max<Cycle>(machine.now(), session.virtual_now());
  // Match CoreStats::instructions, which reports CHKs separately.
  golden.instructions = session.executed() - session.engine().chks_executed() +
                        machine.core().stats().instructions;
  golden.ioq_slots = setup.machine.core.ruu_size;
  return golden;
}

std::string GoldenCache::key_of(const WorkloadSetup& setup, bool fast) {
  std::ostringstream key;
  key << setup.name << '|' << std::hash<std::string>{}(setup.source) << '|'
      << setup.machine.framework_present << '|' << setup.machine.core.ruu_size << '|'
      << setup.os.seed << '|' << setup.os.run_limit << '|' << setup.os.static_cfc << '|'
      << setup.os.static_ddt << '|' << setup.os.footprint_summaries << '|'
      << setup.os.context_depth << '|' << setup.os.field_sensitive << '|'
      << setup.os.field_sp_depth << '|'
      // Layout randomization moves every stack/heap/shlib address, so a
      // randomized golden (or one under a different MLR seed — DME variants)
      // must never alias an unrandomized one.
      << setup.os.randomize_layout << '|' << setup.machine.mlr.seed << '|'
      << (fast ? "fast" : "cycle-accurate");
  for (isa::ModuleId id : setup.host_enables) key << '|' << static_cast<int>(id);
  return key.str();
}

std::shared_ptr<const GoldenRun> GoldenCache::get(const WorkloadSetup& setup, bool fast) {
  const std::string key = key_of(setup, fast);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = runs_.find(key);
  if (it != runs_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  auto golden = std::make_shared<const GoldenRun>(
      fast ? simulate_golden_fast(setup) : simulate_golden(setup));
  runs_.emplace(key, golden);
  return golden;
}

}  // namespace rse::campaign
